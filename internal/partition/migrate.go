package partition

import (
	"fmt"

	"sparqlopt/internal/rdf"
)

// Migration is one incremental re-placement: per node, the triples to
// add to that node's fragment. Migrations only ever ADD copies — the
// base method's placement (and therefore every local-join guarantee
// the optimizer derives from it) is preserved verbatim, and coverage
// can never regress. The replication cost is what the advisor budgets.
type Migration struct {
	// Adds holds, per node, the triples to append (deduplicated
	// against the node's existing fragment by Placement.Migrate).
	Adds [][]rdf.Triple
}

// AddCount returns the total triples the migration adds (before
// per-node dedup against existing fragments).
func (m *Migration) AddCount() int {
	n := 0
	for _, ts := range m.Adds {
		n += len(ts)
	}
	return n
}

// Migrate returns a new placement with the migration's adds applied.
// The receiver is unchanged — placements published to an engine are
// immutable, so in-flight queries keep a consistent snapshot while
// the background migration builds the next one. Node fragments stay
// deduplicated: an add that already exists on its node is dropped. A
// touched node's fragment is a fresh array; an untouched one is shared
// with the receiver. Neither is ever written through, so a fragment may
// alias storage its owner reads elsewhere (System keeps the engine's
// sorted base copies).
func (p *Placement) Migrate(m *Migration) (*Placement, error) {
	if m == nil {
		return p, nil
	}
	if len(m.Adds) != p.Nodes {
		return nil, fmt.Errorf("partition: migration has %d node lists, placement has %d nodes", len(m.Adds), p.Nodes)
	}
	next := &Placement{Nodes: p.Nodes, Triples: make([][]rdf.Triple, p.Nodes)}
	for node := range next.Triples {
		old := p.Triples[node]
		adds := m.Adds[node]
		if len(adds) == 0 {
			next.Triples[node] = old
			continue
		}
		seen := make(map[rdf.Triple]struct{}, len(old)+len(adds))
		for _, t := range old {
			seen[t] = struct{}{}
		}
		merged := make([]rdf.Triple, len(old), len(old)+len(adds))
		copy(merged, old)
		for _, t := range adds {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			merged = append(merged, t)
		}
		next.Triples[node] = merged
	}
	return next, nil
}

// Covers reports whether every triple of the dataset is stored on at
// least one node — the migration coverage invariant. (Base methods
// establish it at Partition time; Migrate can only add copies, so it
// is preserved by construction. The property tests assert it anyway.)
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

// HasTriple reports whether node holds the triple. Fragment scans are
// linear; this is a test/advisor helper, not a serving-path call.
func (p *Placement) HasTriple(node int, t rdf.Triple) bool {
	for _, u := range p.Triples[node] {
		if u == t {
			return true
		}
	}
	return false
}
