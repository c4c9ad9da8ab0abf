package partition

import (
	"fmt"
	"slices"
	"testing"

	"sparqlopt/internal/rdf"
)

// addCount returns the total triples m adds.
func addCount(m *Migration) int {
	n := 0
	for _, ts := range m.Adds {
		n += len(ts)
	}
	return n
}

func TestMigrationAddCount(t *testing.T) {
	m := &Migration{Adds: [][]rdf.Triple{{{}, {}}, nil, {{}}}}
	if got := addCount(m); got != 3 {
		t.Fatalf("addCount = %d, want 3", got)
	}
}

func TestCoversDetectsLoss(t *testing.T) {
	ds := chainDataset()
	p, err := HashSO.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(uncovered(ds, p)) > 0 {
		t.Fatal("fresh placement does not cover its dataset")
	}
	// Drop one dataset triple from every node: coverage must fail.
	victim := ds.Triples[0]
	broken := &Placement{Nodes: p.Nodes, Triples: make([][]rdf.Triple, p.Nodes)}
	for n, ts := range p.Triples {
		for _, tr := range ts {
			if tr != victim {
				broken.Triples[n] = append(broken.Triples[n], tr)
			}
		}
	}
	if len(uncovered(ds, broken)) == 0 {
		t.Fatal("a dropped triple went unnoticed")
	}
}

// recoveryDataset is 40 "hot" and 40 "cold" triples; "hot" is interned
// first, so its TermID is the lower.
func recoveryDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("s%d", i), "hot", fmt.Sprintf("o%d", i%7))
		ds.Add(fmt.Sprintf("s%d", i), "cold", fmt.Sprintf("c%d", i%5))
	}
	return ds
}

// sorted returns a sorted copy of ts, as the engine's stores hold them.
func sorted(ts []rdf.Triple) []rdf.Triple {
	out := slices.Clone(ts)
	slices.SortFunc(out, rdf.Triple.Compare)
	return out
}

// placedView is the View an engine serving p over ds with the given
// per-node overlays (nil for none) would plan from.
func placedView(ds *rdf.Dataset, p *Placement, overlay [][]rdf.Triple) *View {
	v := &View{Base: make([][]rdf.Triple, p.Nodes), Overlay: make([][]rdf.Triple, p.Nodes), Data: ds.Snapshot()}
	for node := range v.Base {
		v.Base[node] = sorted(p.Triples[node])
		if overlay != nil {
			v.Overlay[node] = sorted(overlay[node])
		}
	}
	return v
}

// TestPlanRecoveryCoversDeadNode: recovery gives every triple stranded
// on a dead node a copy on a live node, never on the dead one, and a
// recovered view, an empty dead set or an all-dead cluster plans
// nothing.
func TestPlanRecoveryCoversDeadNode(t *testing.T) {
	ds := recoveryDataset()
	const nodes, dead = 4, 1
	base, err := HashSO.Partition(ds, nodes)
	if err != nil {
		t.Fatal(err)
	}
	view := placedView(ds, base, nil)
	m := PlanRecovery(view, []int{dead})
	if m == nil {
		t.Fatal("no recovery for a dead unreplicated node")
	}
	if len(m.Adds[dead]) != 0 {
		t.Fatal("recovery placed copies on the dead node")
	}
	next := placedView(ds, base, m.Adds)
	for _, tr := range base.Triples[dead] {
		if !slices.ContainsFunc([]int{0, 2, 3}, func(node int) bool { return next.Holds(node, tr) }) {
			t.Fatalf("stranded triple %v has no live copy after recovery", ds.String(tr))
		}
	}
	if again := PlanRecovery(next, []int{dead}); again != nil {
		t.Fatalf("recovered placement planned %d more copies", addCount(again))
	}
	if PlanRecovery(view, nil) != nil {
		t.Fatal("empty dead set planned a recovery")
	}
	if PlanRecovery(view, []int{0, 1, 2, 3}) != nil {
		t.Fatal("all-dead cluster planned a recovery")
	}
}

// TestPlanRecoveryBudget: the copies the overlays already hold count
// against RecoveryBudget. A budget left for one predicate's stranded
// triples recovers the lower TermID's and skips the rest; a spent
// budget plans nothing.
func TestPlanRecoveryBudget(t *testing.T) {
	ds := recoveryDataset()
	hot, _ := ds.Dict.Lookup("hot")
	// An unreplicated placement: adjacent hot/cold pairs land together,
	// so every node holds both predicates and killing one strands both.
	base := &Placement{Nodes: 4, Triples: make([][]rdf.Triple, 4)}
	for i, tr := range ds.Triples {
		base.Triples[(i/2)%4] = append(base.Triples[(i/2)%4], tr)
	}
	const dead = 2
	hotStranded, coldStranded := 0, 0
	for _, tr := range base.Triples[dead] {
		if tr.P == hot {
			hotStranded++
		} else {
			coldStranded++
		}
	}
	if hotStranded == 0 || coldStranded == 0 {
		t.Fatalf("fragment %d lacks a mix of predicates (hot=%d cold=%d)", dead, hotStranded, coldStranded)
	}
	// withFiller spends all of the budget but left on node 3's overlay,
	// with copies of nodes 0 and 1's triples (none of them stranded).
	budget := int(RecoveryBudget * float64(ds.Len()))
	withFiller := func(left int) *View {
		filler := append(slices.Clone(base.Triples[0]), base.Triples[1]...)
		return placedView(ds, base, [][]rdf.Triple{nil, nil, nil, filler[:budget-left]})
	}
	m := PlanRecovery(withFiller(hotStranded), []int{dead})
	if m == nil {
		t.Fatal("no recovery with budget for the hot group")
	}
	if addCount(m) != hotStranded {
		t.Fatalf("recovered %d copies, want the %d hot ones", addCount(m), hotStranded)
	}
	for _, adds := range m.Adds {
		for _, tr := range adds {
			if tr.P != hot {
				t.Fatalf("budgeted recovery copied %v before the hot triples", ds.String(tr))
			}
		}
	}
	if m := PlanRecovery(withFiller(0), []int{dead}); m != nil {
		t.Fatalf("a spent budget still planned %d copies", addCount(m))
	}
}
