package sparqlopt

import (
	"errors"
	"slices"
	"strconv"
	"sync"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/health"
)

// recovery is the node-failover driver of a System: the per-node health
// breakers the engine's failover reads consult, and the rounds that
// re-replicate a dead node's stranded triples onto healthy nodes. A
// round changes which nodes hold copies, never the triples: plans,
// statistics and the dataset's epoch stay as they are. A nil *recovery
// (Open without WithNodeFailover) does nothing.
type recovery struct {
	health *health.Tracker
	engine *engine.Engine
	budget *resilience.Budget
	// mu is held for the whole of a round: a trigger that cannot take it
	// collapses into the round in flight, and WaitForMigrations takes
	// and drops it.
	mu sync.Mutex
	// rounds and failed count applied and failed rounds; nil when
	// observability is disabled.
	rounds, failed *obs.Counter
}

// newRecovery turns failover on in eng, with one breaker per node
// configured by breaker on fc's clock, and returns the driver whose
// rounds charge their rebuilds against budget.
func newRecovery(eng *engine.Engine, budget *resilience.Budget, nodes int, fc NodeFailoverConfig, breaker health.Config) *recovery {
	breaker.Now = fc.Clock
	r := &recovery{health: health.New(nodes, breaker), engine: eng, budget: budget}
	eng.SetFailover(r.health)
	return r
}

// register adds the round counters and one node_health gauge per node
// to reg.
func (r *recovery) register(reg *obs.Registry) {
	if r == nil {
		return
	}
	r.rounds = reg.Counter("recovery_rounds_total", "Recovery rounds that re-replicated dead nodes' triples.")
	r.failed = reg.Counter("recovery_failed_rounds_total", "Recovery rounds that planned copies but failed to apply them.")
	gauge := [...]float64{health.Healthy: 1, health.HalfOpen: 0.5, health.Open: 0}
	for node := 0; node < r.health.Nodes(); node++ {
		reg.GaugeFunc("node_health",
			"Per-node breaker state: 1 healthy, 0.5 half-open (probing), 0 open (dead).",
			func() float64 { return gauge[r.health.State(node)] },
			obs.Label{Key: "node", Value: strconv.Itoa(node)})
	}
}

// NodeHealth reports each simulated node's breaker state (see
// WithNodeFailover); nil when node failover is disabled.
func (s *System) NodeHealth() []NodeStatus {
	if s.recovery == nil {
		return nil
	}
	return s.recovery.health.Status()
}

// trigger starts a background round when some node's breaker is open
// (sustained failure) or err is a typed UnavailableError naming dead
// nodes, unless a round is already in flight. Serving is never
// blocked; in-flight queries keep their store snapshot.
func (r *recovery) trigger(err error) {
	if r == nil {
		return
	}
	dead := r.health.Down()
	var ue *UnavailableError
	if errors.As(err, &ue) {
		for _, n := range ue.Nodes {
			if !slices.Contains(dead, n) {
				dead = append(dead, n)
			}
		}
	}
	if len(dead) == 0 || !r.mu.TryLock() {
		return
	}
	go func() {
		defer r.mu.Unlock()
		r.roundLocked(dead)
	}()
}

// roundLocked plans one round from a view of the engine's current
// snapshot, applies it to that same snapshot and counts it; with
// nothing to copy it does nothing. A failure (a memory-budget trip, a
// stale snapshot, a recovered panic) is isolated to the round: serving
// continues on the old placement (failover still covers whatever
// replicas exist) and a later trigger retries. Caller holds r.mu.
func (r *recovery) roundLocked(dead []int) {
	var err error
	defer func() {
		if err != nil {
			r.failed.Inc()
		}
	}()
	defer resilience.CatchPanic(&err, nil)
	snap := r.engine.Snapshot()
	view := snap.View()
	m := partition.PlanRecovery(view, dead)
	if m == nil {
		return
	}
	// The overlay rebuilds — each touched node's previous overlay plus
	// its adds — are charged against the shared memory budget exactly
	// like query arenas, so a round can never OOM a serving node: if
	// queries hold the memory, the round fails and is retried when a
	// later query re-triggers it.
	g := r.budget.NewGauge()
	defer g.Reset()
	var touched int64
	for node, adds := range m.Adds {
		if len(adds) > 0 {
			touched += int64(len(view.Overlay[node]) + len(adds))
		}
	}
	if err = g.Reserve("recovery", touched*migrationTripleBytes); err != nil {
		return
	}
	if err = r.engine.ApplyMigration(snap, m); err == nil {
		r.rounds.Inc()
	}
}

// migrationTripleBytes is the reservation estimate per triple a
// recovery round writes while rebuilding a node's overlay: the triple
// itself (3 TermIDs) in each of the store's four sorted permutations.
const migrationTripleBytes = 48

// WaitForMigrations blocks until the background recovery round in
// flight, if any, has finished — for tests and benchmarks that need a
// quiesced system; serving never requires it.
func (s *System) WaitForMigrations() {
	if s.recovery != nil {
		s.recovery.mu.Lock()
		s.recovery.mu.Unlock()
	}
}
