package engine

// Node failure as a first-class, injectable fault domain.
//
// A "node" here is one simulated computing node: a base fragment
// store, an optional recovery overlay, and a share of every shuffle.
// The fault-injection sites node/<i>/scan and node/<i>/shuffle stand
// in for the node's process or link dying: while one fires, every
// contact with that node on the corresponding path fails.
//
// The failure ladder, per node operation:
//
//  1. Breaker check. If the node's health breaker is Open, skip the
//     contact entirely — no retries, no sleeps — and go straight to
//     failover. A dead node costs queries nothing once the breaker
//     has tripped, and queries that cannot carry a fault set (HTTP
//     requests) still exercise the failover path deterministically.
//  2. Retry with capped exponential backoff (resilience.Backoff,
//     cancellable sleeps), re-asking the fault site each attempt so a
//     transient blip recovers without declaring the node dead. Every
//     attempt's outcome feeds the breaker.
//  3. Failover. The node joins the execution's dead set, and its share
//     of the operation is served without it:
//
//     Scans become failover reads (see Snap.read): the dead node's
//     immutable store is walked as its fragment *manifest* — standing
//     in for the placement metadata a real coordinator keeps — and
//     every kept triple must have a copy on a live node, answered by
//     the replicas' own indexes. Covered scans emit exactly the rows
//     the healthy run would have; a scan that matches even one
//     uncovered triple fails fast with a typed
//     *resilience.UnavailableError. Never a hang, never a silent
//     partial result.
//
//     Shuffles re-home the dead node's partition: scatter buckets are
//     pure computation over inputs already fetched from live nodes, so
//     any healthy worker can own the bucket. The failover is recorded
//     but always succeeds.
//
// Join compute needs no ladder of its own: by the time a join runs,
// all data movement has happened, and the per-node join worker is
// re-homeable computation exactly like a shuffle bucket.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/resilience/health"
)

// FailoverPolicy enables node-failure handling. Set it with
// Engine.SetFailover; a nil policy (the default) disables the ladder —
// a firing node fault then fails the query immediately with a typed
// *resilience.UnavailableError and no replica is consulted (the
// no-failover twin the benchmarks compare against).
type FailoverPolicy struct {
	// Health is the per-node breaker the ladder feeds and consults.
	// Optional: nil disables breaker fast-failing (every operation
	// pays its retries).
	Health *health.Tracker
	// MaxAttempts is how many times a node operation is tried before
	// the node is declared dead for the execution (< 1 means 1).
	MaxAttempts int
	// Backoff paces the retries. The zero value retries immediately.
	Backoff resilience.Backoff
}

// failoverState is one execution's failure memory: which nodes were
// declared dead (by what), and how many node operations failed over.
// It is created per ExecuteStream call and shared by the run's
// concurrent per-node workers.
type failoverState struct {
	mu        sync.Mutex
	dead      map[int]string // node -> what declared it ("scan", "shuffle", "breaker open")
	failovers int64
}

func (st *failoverState) isDead(node int) bool {
	if st == nil {
		return false
	}
	st.mu.Lock()
	_, ok := st.dead[node]
	st.mu.Unlock()
	return ok
}

func (st *failoverState) markDead(node int, via string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.dead == nil {
		st.dead = make(map[int]string)
	}
	if _, ok := st.dead[node]; !ok {
		st.dead[node] = via
	}
	st.mu.Unlock()
}

func (st *failoverState) recordFailover() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.failovers++
	st.mu.Unlock()
}

// deadNodes returns the execution's dead set, ascending.
func (st *failoverState) deadNodes() []int {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	nodes := make([]int, 0, len(st.dead))
	for n := range st.dead {
		nodes = append(nodes, n)
	}
	st.mu.Unlock()
	sort.Ints(nodes)
	return nodes
}

// summary returns the failover count and the degradation-ladder notes
// (one per dead node, ascending, so the output is schedule-invariant).
func (st *failoverState) summary() (int64, []string) {
	if st == nil {
		return 0, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.dead) == 0 {
		return st.failovers, nil
	}
	nodes := make([]int, 0, len(st.dead))
	for n := range st.dead {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	notes := make([]string, 0, len(nodes))
	for _, n := range nodes {
		notes = append(notes, fmt.Sprintf("failover: node %d down (%s), served from replicas", n, st.dead[n]))
	}
	return st.failovers, notes
}

// SetFailover installs (or, with nil, removes) the engine's node-
// failover policy. It must not be called concurrently with Execute.
func (e *Engine) SetFailover(p *FailoverPolicy) { e.fo = p }

// nodeGate simulates contacting node for one kind of operation
// ("scan" or "shuffle") at that operation's per-node fault site. It
// returns down=true when the node must be treated as dead and the
// operation served via failover. With no failover policy a firing
// fault is a hard, typed error instead. err is non-nil only for
// cancellation or that no-failover failure.
func (e *Engine) nodeGate(ctx context.Context, node int, kind string, env ExecEnv) (down bool, err error) {
	fo := e.fo
	// The site name is built only when a fault set could fire it: every
	// scan and scatter passes here once per node, and production (no
	// set) must not pay a string concatenation for each.
	var site faultinject.Site
	if env.Faults != nil {
		if kind == "scan" {
			site = faultinject.NodeScan(node)
		} else {
			site = faultinject.NodeShuffle(node)
		}
	}
	if fo == nil {
		if env.Faults.Should(site) {
			// Failover disabled: node death is immediately fatal to the
			// query — the failure mode the failover bench's twin exhibits.
			return false, &resilience.UnavailableError{Nodes: []int{node}, Op: kind}
		}
		return false, nil
	}
	st := env.fo
	if st.isDead(node) {
		// Already declared dead by an earlier operation of this
		// execution: don't pay the retries again.
		return true, nil
	}
	if !fo.Health.Allow(node) {
		st.markDead(node, "breaker open")
		return true, nil
	}
	attempts := fo.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for a := 0; ; a++ {
		if !env.Faults.Should(site) {
			fo.Health.ReportSuccess(node)
			return false, nil
		}
		fo.Health.ReportFailure(node)
		if a+1 >= attempts {
			st.markDead(node, kind)
			return true, nil
		}
		if d := fo.Backoff.Delay(a); d > 0 {
			// Backoff sleeps stay cancellable: a deadline firing mid-retry
			// aborts the query like any other timeout.
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return false, obs.Canceled(ctx, "failover")
			case <-t.C:
			}
		}
	}
}

// unavailable builds the typed fail-fast error for a query that
// touched a dead, unreplicated fragment, with the breaker's next-probe
// horizon as the retry hint.
func (e *Engine) unavailable(env ExecEnv, op string, missing int) error {
	nodes := env.fo.deadNodes()
	var retry time.Duration
	if fo := e.fo; fo != nil {
		for _, n := range nodes {
			if r := fo.Health.RetryIn(n); r > retry {
				retry = r
			}
		}
	}
	return &resilience.UnavailableError{Nodes: nodes, Op: op, Missing: missing, RetryAfter: retry}
}
