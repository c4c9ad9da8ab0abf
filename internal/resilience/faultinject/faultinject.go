// Package faultinject is a deterministic, build-tag-free fault
// injection harness for the serving path. Tools and tests arm a Set
// with faults at named sites; instrumented code asks Should(site) at
// each site and misbehaves — panics, trips a budget, sleeps, fails a
// node — when the harness says so.
//
// Determinism is the point: firing is a pure function of (seed, site,
// hit count). A chaos run with a given seed injects exactly the same
// faults at exactly the same sites every time, under any goroutine
// schedule, so failures reproduce. There are no build tags and no
// global state: an un-armed (nil) Set is a handful of nil checks on
// the hot path, and production code simply never arms one.
//
// Every instrumented site is listed in the registry (Sites); the
// package test walks the repository and fails on any site that
// bypasses it, so a typo in a site name cannot silently never fire.
// The catalog:
//
//	opt/panic          panic inside an optimizer enumeration worker
//	opt/budget         memory-budget trip at the optimizer memo
//	engine/panic       panic inside a per-node join worker
//	engine/slow        armed delay inside an engine operator
//	engine/budget      memory-budget trip at an engine operator
//	node/<i>/scan      node i fails fragment scans (node death, reads)
//	node/<i>/shuffle   node i fails to accept scatter partitions
//
// The node/<i>/* families are produced by the NodeScan and NodeShuffle
// constructors and parsed back by NodeSite.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one instrumented fault point.
type Site string

// The serving path's instrumented sites.
const (
	// OptPanic panics inside the optimizer's CMD-costing loop.
	OptPanic Site = "opt/panic"
	// OptBudget forces a memory-budget trip when the optimizer's memo
	// reserves its next entry.
	OptBudget Site = "opt/budget"
	// EnginePanic panics inside a per-node join worker goroutine.
	EnginePanic Site = "engine/panic"
	// EngineSlow stalls an engine operator for the armed delay
	// (cancellable by the query's context).
	EngineSlow Site = "engine/slow"
	// EngineBudget forces a memory-budget trip at an engine operator.
	EngineBudget Site = "engine/budget"
)

// NodeScan returns the node-scoped fault site of node's fragment-scan
// path ("node/<i>/scan"): while armed and firing, the node fails to
// serve scans, as if its process or link were down. The node index is
// part of the site name, so killing node 3 never perturbs node 2's
// firing pattern.
func NodeScan(node int) Site {
	return Site("node/" + strconv.Itoa(node) + "/scan")
}

// NodeShuffle returns the node-scoped fault site of node's shuffle
// path ("node/<i>/shuffle"): while armed and firing, the node fails to
// accept repartition-join scatter partitions.
func NodeShuffle(node int) Site {
	return Site("node/" + strconv.Itoa(node) + "/shuffle")
}

// NodeSite parses a node-scoped site. It returns the node index and
// the kind ("scan" or "shuffle"); ok is false for any other site.
func NodeSite(site Site) (node int, kind string, ok bool) {
	s := string(site)
	if !strings.HasPrefix(s, "node/") {
		return 0, "", false
	}
	rest := s[len("node/"):]
	i := strings.IndexByte(rest, '/')
	if i <= 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:i])
	if err != nil || n < 0 || rest[:i] != strconv.Itoa(n) {
		return 0, "", false
	}
	kind = rest[i+1:]
	if kind != "scan" && kind != "shuffle" {
		return 0, "", false
	}
	return n, kind, true
}

// Injected is the value carried by injected panics, so tests can tell
// an injected panic apart from a real one.
type Injected struct {
	Site Site
}

func (i Injected) String() string { return "injected fault at " + string(i.Site) }

// Error makes Injected usable as the cause of injected non-panic
// faults too (cache-lookup errors).
func (i Injected) Error() string { return i.String() }

// arm is one armed site. n counts hits; the fault fires on hits where
// n % every == offset, at most limit times (limit < 0 = unlimited).
type arm struct {
	every  uint64
	offset uint64
	limit  int64
	delay  time.Duration

	n     atomic.Uint64
	fired atomic.Int64
}

// Set is a seeded collection of armed sites. The zero value and nil
// are valid, un-armed sets: Should always reports false. Arming is
// not synchronized with firing — arm everything before handing the
// set to running queries.
type Set struct {
	seed uint64
	mu   sync.Mutex
	arms map[Site]*arm
}

// New returns an empty set whose firing pattern derives from seed.
func New(seed int64) *Set {
	return &Set{seed: splitmix64(uint64(seed))}
}

// Seed returns the seed the set was built with (post-mix).
func (s *Set) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Arm makes site fire once every `every` hits, forever. The phase
// within the period is derived from the seed and the site name, so
// different seeds shift which hits fire.
func (s *Set) Arm(site Site, every int) { s.arm(site, every, -1, 0) }

// ArmN is Arm with an upper bound on total firings.
func (s *Set) ArmN(site Site, every, limit int) { s.arm(site, every, int64(limit), 0) }

// ArmDelay arms a slow-operator site: when it fires, Delay reports d.
func (s *Set) ArmDelay(site Site, every int, d time.Duration) { s.arm(site, every, -1, d) }

func (s *Set) arm(site Site, every int, limit int64, d time.Duration) {
	if s == nil {
		panic("faultinject: arming a nil Set")
	}
	if every < 1 {
		every = 1
	}
	a := &arm{
		every:  uint64(every),
		offset: splitmix64(s.seed^hashSite(site)) % uint64(every),
		limit:  limit,
		delay:  d,
	}
	s.mu.Lock()
	if s.arms == nil {
		s.arms = make(map[Site]*arm)
	}
	s.arms[site] = a
	s.mu.Unlock()
}

// Disarm removes site from the set.
func (s *Set) Disarm(site Site) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.arms, site)
	s.mu.Unlock()
}

func (s *Set) lookup(site Site) *arm {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	a := s.arms[site]
	s.mu.Unlock()
	return a
}

// Should records one hit at site and reports whether the fault fires
// on it. Safe on a nil set (never fires).
func (s *Set) Should(site Site) bool {
	a := s.lookup(site)
	if a == nil {
		return false
	}
	n := a.n.Add(1) - 1
	if n%a.every != a.offset {
		return false
	}
	if a.limit >= 0 && a.fired.Add(1) > a.limit {
		return false
	}
	if a.limit < 0 {
		a.fired.Add(1)
	}
	return true
}

// Delay records one hit at site and returns the armed delay when the
// fault fires, 0 otherwise. Safe on a nil set.
func (s *Set) Delay(site Site) time.Duration {
	a := s.lookup(site)
	if a == nil || a.delay <= 0 {
		return 0
	}
	if !s.Should(site) {
		return 0
	}
	return a.delay
}

// Fired returns how many times site has fired.
func (s *Set) Fired(site Site) int64 {
	a := s.lookup(site)
	if a == nil {
		return 0
	}
	f := a.fired.Load()
	if a.limit >= 0 && f > a.limit {
		return a.limit
	}
	return f
}

// Hits returns how many times site was asked (fired or not).
func (s *Set) Hits(site Site) uint64 {
	a := s.lookup(site)
	if a == nil {
		return 0
	}
	return a.n.Load()
}

// PanicIf panics with an Injected value when site fires — the one-line
// helper instrumented code uses for panic sites.
func (s *Set) PanicIf(site Site) {
	if s.Should(site) {
		panic(Injected{Site: site})
	}
}

// String lists the armed sites, for error messages and logs.
func (s *Set) String() string {
	if s == nil {
		return "faultinject.Set(nil)"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("faultinject.Set(seed=%#x, %d sites armed)", s.seed, len(s.arms))
}

// splitmix64 is the avalanche mixer used across the repo's hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashSite folds a site name FNV-1a style.
func hashSite(site Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}
