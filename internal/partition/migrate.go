package partition

import (
	"slices"

	"sparqlopt/internal/rdf"
)

// RecoveryBudget caps the copies recovery rounds add, all of them
// together, as a fraction of the dataset size.
const RecoveryBudget = 0.5

// Migration is one incremental re-placement: per node, the triples to
// add to that node's overlay. Migrations only ever ADD copies — the
// base method's placement (and therefore every local-join guarantee
// the optimizer derives from it) is preserved verbatim, and coverage
// can never regress. PlanRecovery plans them, within RecoveryBudget.
type Migration struct {
	// Adds holds, per node, the triples to add: distinct, and net of
	// what the View the migration was planned from already places on
	// the node.
	Adds [][]rdf.Triple
}

// View is a read-only look at the placement one engine snapshot
// serves — the one record of who holds what. Migrations are planned
// from it and applied to the snapshot it came from. Every array is the
// engine's own, sorted by (S, P, O); callers must not write to them.
type View struct {
	// Base holds each node's fragment as the partitioning method placed
	// it.
	Base [][]rdf.Triple
	// Overlay holds the copies recovery added to each node, nil for a
	// node with none. They are copies of fragment triples.
	Overlay [][]rdf.Triple
	// Delta holds the ingest chunks. Every node serves all of them, so
	// a delta triple is never stranded and never needs a copy; none of
	// them is in a fragment or an overlay.
	Delta [][]rdf.Triple
	// Data is the dataset snapshot the engine snapshot was built from.
	Data *rdf.Snapshot
}

// Nodes returns the cluster size.
func (v *View) Nodes() int { return len(v.Base) }

// Fragment returns node's placed arrays: its base fragment and its
// overlay (nil when it has none). The two are disjoint.
func (v *View) Fragment(node int) [][]rdf.Triple {
	return [][]rdf.Triple{v.Base[node], v.Overlay[node]}
}

// Size returns how many triples node's fragment and overlay hold.
func (v *View) Size(node int) int { return len(v.Base[node]) + len(v.Overlay[node]) }

// Holds reports whether node's fragment or overlay holds t: a binary
// search in each.
func (v *View) Holds(node int, t rdf.Triple) bool {
	_, inBase := slices.BinarySearchFunc(v.Base[node], t, rdf.Triple.Compare)
	_, inOverlay := slices.BinarySearchFunc(v.Overlay[node], t, rdf.Triple.Compare)
	return inBase || inOverlay
}

// Copies returns the triples the snapshot stores: every fragment and
// overlay copy, and each delta triple once.
func (v *View) Copies() int {
	n := 0
	for node := range v.Base {
		n += v.Size(node)
	}
	for _, ts := range v.Delta {
		n += len(ts)
	}
	return n
}

// PlanRecovery plans a re-replication round around the dead nodes:
// every triple a dead node's fragment or overlay holds without a copy on
// a live node (a query that needs it fails with a typed unavailability
// error) gets one copy on a live node. Delta triples are served by every
// node and never stranded. The stranded triples are grouped by
// predicate, taken in TermID order and accepted while they fit the
// budget: RecoveryBudget times the dataset size, less the copies the
// overlays already hold. Each accepted group lands on the live node with
// the smallest projected fragment. Returns nil when nothing is stranded,
// no node is live, or nothing fits.
func PlanRecovery(v *View, dead []int) *Migration {
	n := v.Nodes()
	isDead := make([]bool, n)
	for _, d := range dead {
		if d >= 0 && d < n {
			isDead[d] = true
		}
	}
	var live []int
	sizes := make([]int, n)
	budget := int(RecoveryBudget * float64(v.Data.Len()))
	for node := range sizes {
		sizes[node] = v.Size(node)
		budget -= len(v.Overlay[node])
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
	preds := make([]rdf.TermID, 0, len(groups))
	for p := range groups {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	adds := make([][]rdf.Triple, n)
	added := 0
	for _, p := range preds {
		ts := groups[p]
		if len(ts) > budget {
			continue
		}
		target := live[0]
		for _, node := range live[1:] {
			if sizes[node] < sizes[target] {
				target = node
			}
		}
		adds[target] = append(adds[target], ts...)
		sizes[target] += len(ts)
		budget -= len(ts)
		added += len(ts)
	}
	if added == 0 {
		return nil
	}
	return &Migration{Adds: adds}
}
