package partition

import (
	"slices"

	"sparqlopt/internal/rdf"
)

// Migration is one incremental re-placement: per node, the triples to
// add to that node's fragment. Migrations only ever ADD copies — the
// base method's placement (and therefore every local-join guarantee
// the optimizer derives from it) is preserved verbatim, and coverage
// can never regress. The replication cost is what the advisor budgets.
type Migration struct {
	// Adds holds, per node, the triples to add: distinct, and net of
	// what the View the migration was planned from already places on
	// the node.
	Adds [][]rdf.Triple
}

// AddCount returns the total triples the migration adds.
func (m *Migration) AddCount() int {
	n := 0
	for _, ts := range m.Adds {
		n += len(ts)
	}
	return n
}

// View is a read-only look at the placement one engine snapshot
// serves — the one record of who holds what. Migrations are planned
// from it and applied to the snapshot it came from. Every array is the
// engine's own, sorted by (S, P, O); callers must not write to them.
type View struct {
	// Base holds each node's fragment as the partitioning method placed
	// it.
	Base [][]rdf.Triple
	// Overlay holds the copies migrations added to each node, nil for a
	// node with none. They are copies of fragment triples.
	Overlay [][]rdf.Triple
	// Delta holds the ingest chunks. Every node serves all of them, so
	// a delta triple is never stranded and never needs a copy; none of
	// them is in a fragment or an overlay.
	Delta [][]rdf.Triple
	// Align is the alignment the snapshot's placement guarantees.
	Align *Alignment
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

// Covers reports whether every triple of the dataset is stored on at
// least one node — the coverage invariant base methods establish at
// Partition time.
func (p *Placement) Covers(ds *rdf.Dataset) bool {
	stored := make(map[rdf.Triple]struct{})
	for _, ts := range p.Triples {
		for _, t := range ts {
			stored[t] = struct{}{}
		}
	}
	for _, t := range ds.Triples {
		if _, ok := stored[t]; !ok {
			return false
		}
	}
	return true
}
