// Package health tracks per-node availability with a consecutive-
// failure circuit breaker. Every simulated node gets an independent
// breaker:
//
//	Healthy ──(ConsecutiveFailures failures in a row)──▶ Open
//	Open ──(OpenFor elapses, next Allow)──▶ HalfOpen
//	HalfOpen ──(ProbeSuccesses consecutive successes)──▶ Healthy
//	HalfOpen ──(any failure)──▶ Open
//
// While a node is Open, Allow reports false and the engine skips
// contacting the node entirely, straight to replica failover, so a
// dead node costs queries nothing after the breaker trips. Once
// OpenFor has elapsed, Allow lets probes through in the HalfOpen
// state; real successes close the breaker, a failure reopens it and
// restarts the clock.
//
// The tracker is fed by the engine's per-node operation outcomes
// (ReportSuccess / ReportFailure; an execution reports at most one
// failure per node, since a failed node is dead for the rest of it)
// and consulted by the serving layer for /healthz, the node_health
// metrics, and the recovery trigger. The clock is injectable so tests
// drive the Open→HalfOpen transition deterministically.
package health

import (
	"fmt"
	"sync"
	"time"
)

// State is a node breaker's position in the failure lifecycle.
type State int

const (
	// Healthy admits all operations.
	Healthy State = iota
	// Open rejects all operations: the node is considered dead.
	Open
	// HalfOpen admits probe operations after OpenFor elapsed; their
	// outcomes decide between closing and reopening.
	HalfOpen
)

// String returns the lowercase state name used in /healthz and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes the breakers. The zero value gets sensible defaults.
type Config struct {
	// ConsecutiveFailures trips the breaker after this many back-to-
	// back failures with no success between them (default 3). The
	// engine reports one failure per execution that finds the node
	// failed, so the default opens the breaker on the third query in a
	// row to do so: a one-off blip fails that query over but leaves
	// the node Healthy.
	ConsecutiveFailures int
	// OpenFor is how long an Open breaker rejects before allowing a
	// half-open probe (default 1s).
	OpenFor time.Duration
	// ProbeSuccesses is how many consecutive half-open successes close
	// the breaker (default 2).
	ProbeSuccesses int
	// Now is the clock; nil means time.Now. Injectable for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// NodeStatus is one node's externally visible health.
type NodeStatus struct {
	Node  int
	State State
	// Failures and Successes are lifetime operation counts.
	Failures  int64
	Successes int64
}

// nodeState is one breaker. All fields are guarded by Tracker.mu.
type nodeState struct {
	state    State
	consec   int       // consecutive failures (Healthy only)
	openedAt time.Time // when the breaker last opened
	probeOK  int       // consecutive half-open successes

	failures  int64 // lifetime
	successes int64 // lifetime
}

// Tracker holds one breaker per node. All methods are safe for
// concurrent use and no-ops on a nil receiver (health tracking
// disabled).
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	nodes []nodeState
}

// New returns a tracker for nodes breakers, all Healthy.
func New(nodes int, cfg Config) *Tracker {
	if nodes < 1 {
		nodes = 1
	}
	return &Tracker{cfg: cfg.withDefaults(), nodes: make([]nodeState, nodes)}
}

// Nodes returns the tracked node count (0 on nil).
func (t *Tracker) Nodes() int {
	if t == nil {
		return 0
	}
	return len(t.nodes)
}

// Allow reports whether an operation may contact node. Healthy and
// HalfOpen admit; Open admits nothing until OpenFor has elapsed, at
// which point the call itself transitions the breaker to HalfOpen and
// admits the probe. Out-of-range nodes and a nil tracker admit.
func (t *Tracker) Allow(node int) bool {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[node]
	if n.state != Open {
		return true
	}
	if t.cfg.Now().Sub(n.openedAt) >= t.cfg.OpenFor {
		n.state = HalfOpen
		n.probeOK = 0
		return true
	}
	return false
}

// ReportSuccess records a successful operation against node.
func (t *Tracker) ReportSuccess(node int) {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[node]
	n.successes++
	switch n.state {
	case Healthy:
		n.consec = 0
	case HalfOpen:
		n.probeOK++
		if n.probeOK >= t.cfg.ProbeSuccesses {
			*n = nodeState{failures: n.failures, successes: n.successes}
		}
	case Open:
		// A late success from an operation admitted before the trip:
		// ignored — only half-open probes close the breaker.
	}
}

// ReportFailure records a failed operation against node, possibly
// tripping (or re-tripping) the breaker.
func (t *Tracker) ReportFailure(node int) {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[node]
	n.failures++
	now := t.cfg.Now()
	switch n.state {
	case Healthy:
		n.consec++
		if n.consec >= t.cfg.ConsecutiveFailures {
			n.state = Open
			n.openedAt = now
		}
	case HalfOpen:
		// A failed probe reopens and restarts the cool-down.
		n.state = Open
		n.openedAt = now
		n.probeOK = 0
	case Open:
		// A straggler failure while open extends the cool-down: the
		// node is demonstrably still failing.
		n.openedAt = now
	}
}

// State returns node's breaker state (Healthy when out of range/nil).
func (t *Tracker) State(node int) State {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return Healthy
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes[node].state
}

// Down returns the nodes whose breakers are not Healthy, ascending —
// the set recovery re-replicates around.
func (t *Tracker) Down() []int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var down []int
	for i := range t.nodes {
		if t.nodes[i].state != Healthy {
			down = append(down, i)
		}
	}
	return down
}

// RetryIn returns how long until node's Open breaker next admits a
// probe — the UnavailableError retry hint. Zero for a node that is
// not Open.
func (t *Tracker) RetryIn(node int) time.Duration {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &t.nodes[node]
	if n.state != Open {
		return 0
	}
	left := t.cfg.OpenFor - t.cfg.Now().Sub(n.openedAt)
	if left < 0 {
		left = 0
	}
	return left
}

// Status snapshots every node's health, ascending by node.
func (t *Tracker) Status() []NodeStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeStatus, len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		out[i] = NodeStatus{Node: i, State: n.state, Failures: n.failures, Successes: n.successes}
	}
	return out
}
