package plan

import (
	"strings"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
)

var p = cost.Default

func TestScanNode(t *testing.T) {
	n := NewScan(3, 100, p)
	if n.Set != bitset.Single(3) || n.Alg != Scan || n.TP != 3 {
		t.Errorf("scan node = %+v", n)
	}
	if n.Cost != p.Scan(100) {
		t.Errorf("Cost = %v", n.Cost)
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
	if n.Depth() != 1 || n.Operators() != 0 {
		t.Error("scan depth/operators wrong")
	}
}

func TestJoinCosting(t *testing.T) {
	a := NewScan(0, 100, p)
	b := NewScan(1, 200, p)
	j := NewJoin(RepartitionJoin, "x", []*Node{a, b}, 50, p)
	wantOp := p.Repartition([]float64{100, 200}, 50)
	if j.OpCost != wantOp {
		t.Errorf("OpCost = %v, want %v", j.OpCost, wantOp)
	}
	// Eq. 3: max child cost + op cost.
	if j.Cost != b.Cost+wantOp {
		t.Errorf("Cost = %v, want %v", j.Cost, b.Cost+wantOp)
	}
	if j.Set != bitset.Of(0, 1) {
		t.Errorf("Set = %v", j.Set)
	}
	if err := j.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMultiwayJoin(t *testing.T) {
	children := []*Node{NewScan(0, 10, p), NewScan(1, 20, p), NewScan(2, 30, p)}
	j := NewJoin(LocalJoin, "v", children, 5, p)
	if len(j.Children) != 3 || j.Set != bitset.Of(0, 1, 2) {
		t.Errorf("join = %+v", j)
	}
	if j.Depth() != 2 || j.Operators() != 1 {
		t.Errorf("Depth=%d Operators=%d", j.Depth(), j.Operators())
	}
	if got := len(leaves(j)); got != 3 {
		t.Errorf("Leaves = %d", got)
	}
	if err := j.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBushyPlanDepth(t *testing.T) {
	l := NewJoin(LocalJoin, "a", []*Node{NewScan(0, 10, p), NewScan(1, 10, p)}, 5, p)
	r := NewJoin(LocalJoin, "b", []*Node{NewScan(2, 10, p), NewScan(3, 10, p)}, 5, p)
	root := NewJoin(BroadcastJoin, "c", []*Node{l, r}, 2, p)
	if root.Depth() != 3 || root.Operators() != 3 {
		t.Errorf("Depth=%d Operators=%d", root.Depth(), root.Operators())
	}
	if err := root.Validate(); err != nil {
		t.Error(err)
	}
	out := root.Format()
	for _, want := range []string{"⋈B on ?c", "⋈L on ?a", "scan tp1", "scan tp4"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestNewJoinPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"scan alg", func() { NewJoin(Scan, "x", []*Node{NewScan(0, 1, p), NewScan(1, 1, p)}, 1, p) }},
		{"one child", func() { NewJoin(LocalJoin, "x", []*Node{NewScan(0, 1, p)}, 1, p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	a := NewScan(0, 10, p)
	b := NewScan(0, 10, p) // same pattern: overlapping
	j := &Node{Set: bitset.Of(0), Alg: LocalJoin, Children: []*Node{a, b}}
	if err := j.Validate(); err == nil {
		t.Error("overlap not detected")
	}
}

func TestValidateCatchesBadCover(t *testing.T) {
	a := NewScan(0, 10, p)
	b := NewScan(1, 10, p)
	j := &Node{Set: bitset.Of(0, 1, 2), Alg: LocalJoin, Children: []*Node{a, b}, Cost: a.Cost}
	if err := j.Validate(); err == nil {
		t.Error("bad cover not detected")
	}
}

func TestValidateCatchesBadCost(t *testing.T) {
	a := NewScan(0, 10, p)
	b := NewScan(1, 10, p)
	j := NewJoin(LocalJoin, "x", []*Node{a, b}, 5, p)
	j.Cost += 1
	if err := j.Validate(); err == nil {
		t.Error("cost inconsistency not detected")
	}
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{Scan: "scan", LocalJoin: "⋈L", BroadcastJoin: "⋈B", RepartitionJoin: "⋈R"} {
		if alg.String() != want {
			t.Errorf("%d.String() = %q", alg, alg.String())
		}
	}
}

func TestDOT(t *testing.T) {
	l := NewJoin(LocalJoin, "a", []*Node{NewScan(0, 10, p), NewScan(1, 10, p)}, 5, p)
	root := NewJoin(BroadcastJoin, "c", []*Node{l, NewScan(2, 20, p)}, 2, p)
	out := root.DOT()
	for _, want := range []string{"digraph plan", "JOIN_B ?c", "JOIN_L ?a", "tp1", "tp3", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// One node line per operator, one edge per child link.
	if got := strings.Count(out, "label="); got != 5 {
		t.Errorf("DOT has %d nodes, want 5", got)
	}
	if got := strings.Count(out, "->"); got != 4 {
		t.Errorf("DOT has %d edges, want 4", got)
	}
}

// leaves returns the scan nodes of the plan in left-to-right order.
func leaves(n *Node) []*Node {
	if n.Alg == Scan {
		return []*Node{n}
	}
	var out []*Node
	for _, ch := range n.Children {
		out = append(out, leaves(ch)...)
	}
	return out
}
