// Package adaptive implements the online repartitioning advisor: it
// mines completed-query shuffle observations for triple groups that
// repeatedly pay repartition cost, and plans incremental migrations
// that co-locate each hot group's triples with their future join
// destinations (Adaptive Partitioning, Harbi et al.; PHD-Store).
//
// The advisor works on OBSERVED shuffle volume — the exact per-child
// scatter rows and bytes the engine attributed in completed traces —
// never on optimizer estimates. A migration only ever adds copies
// (the base method's placement survives verbatim, so every local-join
// guarantee the optimizer derives from it stays sound), and is bounded
// by a replication budget and a per-node balance factor so one hot
// pattern cannot blow up a node.
//
// The loop is: Observe (per completed query) → PlanMigration (when a
// group crosses the trigger) from a partition.View of the engine
// snapshot → caller applies the proposal to that snapshot → Commit.
// The advisor keeps no placement or alignment of its own: the engine's
// snapshot is the one record of who holds what. Plan and Commit are
// split so a failed application (e.g. a memory-budget trip while
// rebuilding stores) leaves the advisor's accounting untouched and the
// proposal can be retried or dropped.
package adaptive

import (
	"math"
	"slices"
	"sort"
	"sync"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
)

// Observation is one alignable shuffle a completed query paid: a Scan
// child of a repartition join, identified by its (predicate, join
// position) group, with the scatter volume that child actually moved.
// Aligned marks a child that was already served by an aligned scan
// (its Rows/Bytes are zero — the shuffle was skipped).
type Observation struct {
	Key   partition.GroupKey
	Rows  int64
	Bytes int64
	// Aligned reports the group was already migrated when this query ran.
	Aligned bool
}

// Config bounds the advisor. The zero value of any field selects its
// default.
type Config struct {
	// MinBytes is the trigger threshold: a group must accumulate this
	// much observed shuffle volume before it becomes a migration
	// candidate. Default 1 MiB.
	MinBytes int64
	// MinQueries requires the group to recur across this many distinct
	// queries — one huge outlier query does not justify replication.
	// Default 3.
	MinQueries int
	// ReplicationBudget caps the copies all migrations together may
	// add, as a fraction of the dataset size. Default 0.5 (at most
	// half the dataset again).
	ReplicationBudget float64
	// BalanceFactor caps skew: a migration is rejected if it would
	// leave any node's fragment larger than BalanceFactor times the
	// mean fragment size. Default 2.
	BalanceFactor float64
	// DecayHalfLife ages the shuffle accumulators: a group's
	// accumulated rows/bytes/query count halve every DecayHalfLife
	// observed queries, so last week's hot pattern stops qualifying
	// (and stops holding replication budget hostage) once the workload
	// moves on. Groups whose decayed weight drops below one query's
	// worth are expired from the tracker. 0 (the default) disables
	// decay — accumulators only grow, the pre-decay behavior.
	DecayHalfLife int
}

func (c Config) withDefaults() Config {
	if c.MinBytes <= 0 {
		c.MinBytes = 1 << 20
	}
	if c.MinQueries <= 0 {
		c.MinQueries = 3
	}
	if c.ReplicationBudget <= 0 {
		c.ReplicationBudget = 0.5
	}
	if c.BalanceFactor <= 0 {
		c.BalanceFactor = 2
	}
	return c
}

// Stats is a snapshot of the advisor's counters.
type Stats struct {
	// ObservedQueries counts queries that reported at least one
	// alignable shuffle.
	ObservedQueries int64
	// TrackedGroups counts the distinct (predicate, position) groups
	// currently tracked. Without decay this only grows; with decay,
	// groups that cool below one query's worth are expired.
	TrackedGroups int
	// AlignedGroups counts the groups the serving snapshot has aligned.
	// The advisor keeps no alignment, so its own Stats leave it zero;
	// System.AdvisorStats reads it from the engine's snapshot.
	AlignedGroups int
	// AlignedHits counts observations served by an aligned scan — the
	// shuffles the migrations eliminated.
	AlignedHits int64
	// Migrations counts migration rounds applied.
	Migrations int64
	// MigratedTriples counts the copies all migrations added.
	MigratedTriples int64
	// SkippedBudget counts candidate groups rejected by the
	// replication or balance budget.
	SkippedBudget int64
	// FailedMigrations counts migration rounds that planned but failed
	// to apply (memory budget, placement mismatch, recovered panic).
	FailedMigrations int64
	// ExpiredGroups counts groups dropped by accumulator decay after
	// cooling below the tracking floor.
	ExpiredGroups int64
	// RecoveryMigrations counts committed migration rounds planned by
	// PlanRecovery (re-replication after sustained node failure) — a
	// subset of Migrations.
	RecoveryMigrations int64
	// DecayHalfLife echoes the effective decay configuration, in
	// observed queries (0 = decay disabled).
	DecayHalfLife int
}

// Proposal is one planned migration round, to be applied by the caller
// to the engine snapshot it was planned from and then Commit-ed back to
// the advisor.
type Proposal struct {
	Migration *partition.Migration
	// Keys are the groups the proposal aligns, hottest first. Empty for
	// a recovery proposal (recovery copies restore availability, they
	// do not align any group).
	Keys []partition.GroupKey
	// AddCount is the number of triple copies the migration adds.
	AddCount int64
	// Recovery marks a PlanRecovery proposal: re-replication of
	// fragments stranded on dead nodes, not a shuffle-driven alignment.
	Recovery bool
}

// groupAcc accumulates one group's observed shuffle volume. The
// fields are floats because decay scales them continuously; without
// decay they hold exact integer sums.
type groupAcc struct {
	rows    float64
	bytes   float64
	queries float64
	// seen is the advisor's observed-query clock value at the last
	// fold or decay, so aging is applied lazily.
	seen int64
}

// Advisor accumulates shuffle observations and plans bounded
// migrations. All methods are safe for concurrent use.
type Advisor struct {
	mu    sync.Mutex
	cfg   Config
	acc   map[partition.GroupKey]*groupAcc
	added int64 // copies committed so far, against the replication budget
	clock int64 // observed-query count, the decay time base
	stats Stats
}

// New returns an advisor with the given bounds (zero fields take
// defaults; see Config).
func New(cfg Config) *Advisor {
	return &Advisor{cfg: cfg.withDefaults(), acc: make(map[partition.GroupKey]*groupAcc)}
}

// Config returns the advisor's effective (defaulted) configuration.
func (a *Advisor) Config() Config { return a.cfg }

// Stats returns a snapshot of the advisor's counters.
func (a *Advisor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.TrackedGroups = len(a.acc)
	st.DecayHalfLife = a.cfg.DecayHalfLife
	return st
}

// Observe folds one completed query's alignable shuffles into the
// accumulators and reports whether some group the query saw unaligned
// now crosses the migration trigger — the caller's cue to
// PlanMigration, which skips the group if a migration has aligned it
// since the query's snapshot.
func (a *Advisor) Observe(obs []Observation) bool {
	if len(obs) == 0 {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.ObservedQueries++
	a.clock++
	hot := false
	for _, o := range obs {
		if o.Aligned {
			a.stats.AlignedHits++
			continue
		}
		g := a.acc[o.Key]
		if g == nil {
			g = &groupAcc{seen: a.clock}
			a.acc[o.Key] = g
		}
		a.decayLocked(g)
		g.rows += float64(o.Rows)
		g.bytes += float64(o.Bytes)
		g.queries++
		if a.qualifies(g) {
			hot = true
		}
	}
	a.expireLocked()
	return hot
}

// decayLocked lazily ages one accumulator to the current clock:
// everything halves every DecayHalfLife observed queries. Caller holds
// a.mu.
func (a *Advisor) decayLocked(g *groupAcc) {
	if a.cfg.DecayHalfLife <= 0 {
		g.seen = a.clock
		return
	}
	if age := a.clock - g.seen; age > 0 {
		f := math.Exp2(-float64(age) / float64(a.cfg.DecayHalfLife))
		g.rows *= f
		g.bytes *= f
		g.queries *= f
	}
	g.seen = a.clock
}

// expireLocked drops groups whose decayed weight fell below one
// query's worth — they no longer contribute to any trigger and would
// otherwise leak tracker memory under a drifting workload. Caller
// holds a.mu; a no-op without decay.
func (a *Advisor) expireLocked() {
	if a.cfg.DecayHalfLife <= 0 {
		return
	}
	for k, g := range a.acc {
		a.decayLocked(g)
		if g.queries < 0.5 && g.bytes < 1 {
			delete(a.acc, k)
			a.stats.ExpiredGroups++
		}
	}
}

func (a *Advisor) qualifies(g *groupAcc) bool {
	return g.bytes >= float64(a.cfg.MinBytes) && g.queries >= float64(a.cfg.MinQueries)
}

// PlanMigration computes the next migration round from v: the hottest
// qualifying groups v has not aligned — by accumulated observed
// shuffle bytes, with a deterministic tie-break — whose full alignment
// fits the remaining replication budget and the balance factor. For
// every accepted group it adds, per node, the group triples that node
// is missing: after the migration EVERY fragment triple with the
// group's predicate has a copy on AlignNode of its key term, which is
// the all-or-nothing guarantee the engine's aligned scan relies on.
// Delta triples need no copy (every node serves the delta), and a
// triple the engine has not applied yet is in no fragment, so neither
// is ever proposed. Returns nil when no group qualifies or fits.
//
// The advisor's own accounting is NOT advanced here; the caller
// applies the proposal and then calls Commit (or RecordFailure).
func (a *Advisor) PlanMigration(v *partition.View) *Proposal {
	a.mu.Lock()
	defer a.mu.Unlock()
	type cand struct {
		key   partition.GroupKey
		bytes int64
	}
	var cands []cand
	for k, g := range a.acc {
		a.decayLocked(g)
		if v.Align.Aligned(k.Pred, k.Pos) || !a.qualifies(g) {
			continue
		}
		cands = append(cands, cand{k, int64(g.bytes)})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bytes != cands[j].bytes {
			return cands[i].bytes > cands[j].bytes
		}
		if cands[i].key.Pred != cands[j].key.Pred {
			return cands[i].key.Pred < cands[j].key.Pred
		}
		return cands[i].key.Pos < cands[j].key.Pos
	})
	n := v.Nodes()
	nodeSizes := make([]int64, n)
	for node := range nodeSizes {
		nodeSizes[node] = int64(v.Size(node))
	}
	// The copies groups accepted earlier in this round add, so a later
	// group over the same triples counts net of them too.
	type nodeTriple struct {
		node int
		t    rdf.Triple
	}
	planned := make(map[nodeTriple]bool)
	budget := int64(a.cfg.ReplicationBudget*float64(v.Data.Len())) - a.added
	adds := make([][]rdf.Triple, n)
	var accepted []partition.GroupKey
	var addCount int64
	for _, c := range cands {
		group := make([][]rdf.Triple, n)
		for node, ts := range v.Base {
			for _, t := range ts {
				if t.P != c.key.Pred {
					continue
				}
				key := t.S
				if c.key.Pos == partition.PosO {
					key = t.O
				}
				to := partition.AlignNode(key, n)
				if to != node && !v.Holds(to, t) && !planned[nodeTriple{to, t}] {
					group[to] = append(group[to], t)
				}
			}
		}
		// A triple placed on several nodes, none of them its align node,
		// was met once per copy; sorted, the copies are neighbours.
		var count int64
		for node := range group {
			slices.SortFunc(group[node], rdf.Triple.Compare)
			group[node] = slices.Compact(group[node])
			count += int64(len(group[node]))
		}
		if count > budget {
			a.stats.SkippedBudget++
			continue
		}
		// Balance: project the fragment sizes with this group applied.
		var projTotal int64
		balanced := true
		for node := range group {
			projTotal += nodeSizes[node] + int64(len(group[node]))
		}
		mean := projTotal / int64(n)
		if mean < 1 {
			mean = 1
		}
		for node := range group {
			if float64(nodeSizes[node]+int64(len(group[node]))) > a.cfg.BalanceFactor*float64(mean) {
				balanced = false
				break
			}
		}
		if !balanced {
			a.stats.SkippedBudget++
			continue
		}
		budget -= count
		addCount += count
		for node := range group {
			adds[node] = append(adds[node], group[node]...)
			nodeSizes[node] += int64(len(group[node]))
			for _, t := range group[node] {
				planned[nodeTriple{node, t}] = true
			}
		}
		accepted = append(accepted, c.key)
	}
	if len(accepted) == 0 {
		return nil
	}
	return &Proposal{
		Migration: &partition.Migration{Adds: adds},
		Keys:      accepted,
		AddCount:  addCount,
	}
}

// PlanRecovery computes a re-replication round from v after sustained
// node failure: every triple whose fragment and overlay copies ALL
// live on dead nodes (an uncovered fragment — queries matching it fail
// with a typed unavailability error) gets one new copy on a healthy
// node. Delta triples are served by every node and never stranded.
// Uncovered triples are packed by predicate, hottest observed shuffle
// volume first with a deterministic tie-break, and accepted while they
// fit the remaining replication budget; each accepted group lands on
// the healthy node with the smallest projected fragment. The hard
// balance rejection of PlanMigration is deliberately not applied —
// during an outage availability beats balance, and the
// smallest-fragment target is the balance-aware placement. Returns nil
// when nothing is uncovered, no healthy node remains, or nothing fits
// the budget.
//
// Like PlanMigration, the advisor's accounting is not advanced here;
// the caller applies the proposal and then calls Commit (or
// RecordFailure).
func (a *Advisor) PlanRecovery(v *partition.View, dead []int) *Proposal {
	if len(dead) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := v.Nodes()
	isDead := make([]bool, n)
	for _, d := range dead {
		if d >= 0 && d < n {
			isDead[d] = true
		}
	}
	var live []int
	nodeSizes := make([]int64, n)
	for node := range nodeSizes {
		nodeSizes[node] = int64(v.Size(node))
		if !isDead[node] {
			live = append(live, node)
		}
	}
	if len(live) == 0 {
		return nil
	}
	// The dead nodes' triples without a copy on a live node, each once
	// however many dead nodes held it.
	stranded := make(map[rdf.Triple]bool)
	groups := make(map[rdf.TermID][]rdf.Triple)
	for node := range isDead {
		if !isDead[node] {
			continue
		}
		for _, ts := range v.Fragment(node) {
			for _, t := range ts {
				if stranded[t] || slices.ContainsFunc(live, func(l int) bool { return v.Holds(l, t) }) {
					continue
				}
				stranded[t] = true
				groups[t.P] = append(groups[t.P], t)
			}
		}
	}
	if len(groups) == 0 {
		return nil
	}
	// Heat per predicate from the shuffle accumulators: the predicates
	// queries demonstrably touch get their copies back first when the
	// budget cannot cover everything.
	heat := make(map[rdf.TermID]float64)
	for k, g := range a.acc {
		a.decayLocked(g)
		heat[k.Pred] += g.bytes
	}
	type cand struct {
		pred rdf.TermID
		heat float64
	}
	cands := make([]cand, 0, len(groups))
	for pred := range groups {
		cands = append(cands, cand{pred, heat[pred]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].pred < cands[j].pred
	})
	budget := int64(a.cfg.ReplicationBudget*float64(v.Data.Len())) - a.added
	adds := make([][]rdf.Triple, n)
	var addCount int64
	for _, c := range cands {
		ts := groups[c.pred]
		if int64(len(ts)) > budget {
			a.stats.SkippedBudget++
			continue
		}
		target := live[0]
		for _, node := range live[1:] {
			if nodeSizes[node] < nodeSizes[target] {
				target = node
			}
		}
		adds[target] = append(adds[target], ts...)
		nodeSizes[target] += int64(len(ts))
		budget -= int64(len(ts))
		addCount += int64(len(ts))
	}
	if addCount == 0 {
		return nil
	}
	return &Proposal{
		Migration: &partition.Migration{Adds: adds},
		AddCount:  addCount,
		Recovery:  true,
	}
}

// Commit records a successfully applied proposal: the replication
// budget is spent. The groups it aligned are the engine snapshot's
// record, which later plans read through their View.
func (a *Advisor) Commit(p *Proposal) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.added += p.AddCount
	a.stats.Migrations++
	a.stats.MigratedTriples += p.AddCount
	if p.Recovery {
		a.stats.RecoveryMigrations++
	}
}

// RecordFailure counts a migration round that planned but failed to
// apply. The advisor's accounting is unchanged — the groups stay
// candidates and a later round may retry them.
func (a *Advisor) RecordFailure() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.FailedMigrations++
}
