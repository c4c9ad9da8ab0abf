package partition

import (
	"fmt"
	"slices"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

// fig1 is the running example of paper Fig. 1a (indexes 0..6 = tp1..tp7).
const fig1 = `SELECT * WHERE {
	?b <p1> ?a .
	?c <p2> ?a .
	?a <p3> ?e .
	?e <p4> ?g .
	?b <p5> ?f .
	?c <p6> ?d .
	?a <p7> ?d .
}`

func fig1Graph(t *testing.T) *querygraph.Graph {
	t.Helper()
	return querygraph.NewGraph(sparql.MustParse(fig1))
}

func chainDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	// A small directed chain plus a few branches.
	ds.Add("a", "p", "b")
	ds.Add("b", "p", "c")
	ds.Add("c", "p", "d")
	ds.Add("a", "q", "e")
	ds.Add("x", "p", "c")
	return ds
}

func TestHashSOCombineQueryExample7(t *testing.T) {
	// Paper Example 7: MLQ at ?a under hash partitioning is
	// {tp1, tp2, tp3, tp7} = indexes {0,1,2,6}.
	g := fig1Graph(t)
	a := slices.Index(g.Terms, sparql.V("a"))
	got := HashSO.CombineQuery(g, a)
	if got != bitset.Of(0, 1, 2, 6) {
		t.Errorf("MLQ(?a) = %v, want {0,1,2,6}", got)
	}
}

func TestPathCombineQueryExample5(t *testing.T) {
	// Paper Example 5: MLQ at ?b under path partitioning is
	// {tp1, tp3, tp4, tp5, tp7} = indexes {0,2,3,4,6}.
	g := fig1Graph(t)
	b := slices.Index(g.Terms, sparql.V("b"))
	got := PathBMC.CombineQuery(g, b)
	if got != bitset.Of(0, 2, 3, 4, 6) {
		t.Errorf("MLQ(?b) = %v, want {0,2,3,4,6}", got)
	}
}

func TestLocalCheckerHash(t *testing.T) {
	g := fig1Graph(t)
	c := NewLocalChecker(HashSO, g)
	// Example 7: all subqueries of {tp1,tp2,tp3,tp7} are local.
	if !c.IsLocal(bitset.Of(0, 1, 2)) {
		t.Error("{tp1,tp2,tp3} should be local under hash")
	}
	if !c.IsLocal(bitset.Of(0, 1, 2, 6)) {
		t.Error("{tp1,tp2,tp3,tp7} should be local under hash")
	}
	// tp1 and tp4 share no vertex: not local.
	if c.IsLocal(bitset.Of(0, 3)) {
		t.Error("{tp1,tp4} should not be local under hash")
	}
	// The whole query is not local under hash.
	if c.IsLocal(bitset.Full(7)) {
		t.Error("full query should not be local under hash")
	}
	// Singletons always local.
	if !c.IsLocal(bitset.Of(3)) || !c.IsLocal(0) {
		t.Error("singleton/empty must be local")
	}
}

func TestLocalCheckerPath(t *testing.T) {
	g := fig1Graph(t)
	c := NewLocalChecker(PathBMC, g)
	// Under path partitioning, everything reachable from ?b or ?c is
	// local; e.g. {tp1,tp3,tp4,tp5,tp7} (Example 5).
	if !c.IsLocal(bitset.Of(0, 2, 3, 4, 6)) {
		t.Error("{tp1,tp3,tp4,tp5,tp7} should be local under path")
	}
	// The full query needs both ?b and ?c branches: not reachable from
	// any single vertex.
	if c.IsLocal(bitset.Full(7)) {
		t.Error("full query should not be local under path")
	}
}

func TestLocalCheckerKeepsOnlyMaximal(t *testing.T) {
	g := fig1Graph(t)
	c := NewLocalChecker(HashSO, g)
	mlqs := c.MaximalLocalQueries()
	for i, a := range mlqs {
		for j, b := range mlqs {
			if i != j && a.SubsetOf(b) {
				t.Fatalf("mlq %v subsumed by %v", a, b)
			}
		}
	}
}

// TestLocalCheckerAnchor: the anchor of a local subquery is a variable
// of the subquery whose combine covers it — never a vertex the subquery
// does not hold, even when its combine covers the subquery too (path-bmc's
// ?a below), and never a constant.
func TestLocalCheckerAnchor(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?x . ?x <q> ?y . ?y <r> ?z . <c> <s> ?y . <c> <t> ?w . }`)
	g := querygraph.NewGraph(q)
	for _, c := range []struct {
		m    Method
		s    bitset.TPSet
		want string
	}{
		{PathBMC, bitset.Of(1, 2), "x"},
		{PathBMC, bitset.Of(0, 1, 2), "a"},
		{TwoHopForward, bitset.Of(1, 2), "x"},
		{HashSO, bitset.Of(1, 2), "y"},
		{HashSO, bitset.Of(1, 2, 3), "y"},
		{HashSO, bitset.Of(3, 4), ""}, // anchored at the constant <c> only
		{HashSO, bitset.Of(0, 2), ""}, // not local
	} {
		if got := NewLocalChecker(c.m, g).Anchor(c.s); got != c.want {
			t.Errorf("%s: Anchor(%v) = %q, want %q", c.m.Name(), c.s, got, c.want)
		}
	}
	// The zero Method's closure is empty: only single patterns are
	// local, and nothing is anchored.
	zero := NewLocalChecker(Method{}, g)
	if got := zero.Anchor(bitset.Of(1, 2)); got != "" {
		t.Errorf("the zero Method anchored %q", got)
	}
	if zero.IsLocal(bitset.Of(1, 2)) || !zero.IsLocal(bitset.Of(1)) || len(zero.MaximalLocalQueries()) != 0 {
		t.Error("the zero Method's checker admits more than single patterns")
	}
}

// TestPlacementHomeHoldsSubjects: every method with a home places each
// triple on its subject's home; path-bmc, the one unbounded closure, has
// none, and un-1hop hashes a vertex its placement never saw. Only the
// one-hop closures are homed under a delta.
func TestPlacementHomeHoldsSubjects(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, UndirectedOneHop, PathBMC} {
		p, err := m.Partition(ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		if m == PathBMC {
			if p.Home != nil {
				t.Errorf("%s names a home", m.Name())
			}
			continue
		}
		held := map[rdf.Triple]map[int]bool{}
		for n, ts := range p.Triples {
			for _, tr := range ts {
				if held[tr] == nil {
					held[tr] = map[int]bool{}
				}
				held[tr][n] = true
			}
		}
		for _, tr := range ds.Triples {
			if !held[tr][p.Home(tr.S)] {
				t.Fatalf("%s: %s is not on its subject's home %d", m.Name(), ds.String(tr), p.Home(tr.S))
			}
		}
		deltaHomed := m == HashSO || m == UndirectedOneHop
		if m == UndirectedOneHop {
			if unseen := rdf.TermID(ds.Dict.Len() + 7); p.Home(unseen) != hashNode(unseen, 4) {
				t.Errorf("%s: an unseen vertex is homed on %d, want %d", m.Name(), p.Home(unseen), hashNode(unseen, 4))
			}
		}
		if p.DeltaHomed != deltaHomed {
			t.Errorf("%s: DeltaHomed = %v", m.Name(), p.DeltaHomed)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Method{
		"hash-so": HashSO, "2f": TwoHopForward, "2fb": TwoHopBidirectional,
		"path-bmc": PathBMC, "un-1hop": UndirectedOneHop,
	} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if m != want {
			t.Errorf("ByName(%q) = %q, want %q", name, m.Name(), want.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// coverage asserts every dataset triple appears on at least one node.
func coverage(t *testing.T, ds *rdf.Dataset, p *Placement) {
	t.Helper()
	for _, tr := range uncovered(ds, p) {
		t.Errorf("triple %v missing from placement", ds.String(tr))
	}
}

// uncovered returns the dataset triples no node of p stores.
func uncovered(ds *rdf.Dataset, p *Placement) []rdf.Triple {
	have := map[rdf.Triple]bool{}
	for _, node := range p.Triples {
		for _, tr := range node {
			have[tr] = true
		}
	}
	var out []rdf.Triple
	for _, tr := range ds.Triples {
		if !have[tr] {
			out = append(out, tr)
		}
	}
	return out
}

func TestPartitionCoverageAllMethods(t *testing.T) {
	ds := chainDataset()
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop} {
		t.Run(m.Name(), func(t *testing.T) {
			p, err := m.Partition(ds, 3)
			if err != nil {
				t.Fatal(err)
			}
			if p.Nodes != 3 || len(p.Triples) != 3 {
				t.Fatalf("placement shape wrong: %+v", p)
			}
			coverage(t, ds, p)
			if p.ReplicationFactor(ds.Len()) < 1 {
				t.Errorf("replication factor %v < 1", p.ReplicationFactor(ds.Len()))
			}
		})
	}
}

// TestPartitionDeterministic partitions LUBM-1 five times under each
// method and requires the same fragments, triple for triple, every
// time. Go randomizes every map range, so a placement that depends on
// one (path-bmc's start vertices, un-1hop's BFS seeds) differs between
// runs in one process.
func TestPartitionDeterministic(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop} {
		t.Run(m.Name(), func(t *testing.T) {
			first, err := m.Partition(ds, 10)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 5; run++ {
				p, err := m.Partition(ds, 10)
				if err != nil {
					t.Fatal(err)
				}
				for n := range p.Triples {
					if !slices.Equal(p.Triples[n], first.Triples[n]) {
						t.Fatalf("run %d: node %d's fragment (%d triples) differs from run 0's (%d)",
							run, n, len(p.Triples[n]), len(first.Triples[n]))
					}
				}
			}
		})
	}
}

// TestTwoHopPerTriple pins the two-hop placements, which place by node
// sets widened in rounds, to their definitions walked per triple. 2f
// places (s,p,o) on the node of s and of every u with u→s; 2fb on the
// node of s, of o, and of every in- or out-neighbor of s or o. The
// fragments must be the same triple for triple on a graph with a hub
// vertex (the object of every second triple, as rdf:type classes are),
// on the chain and on LUBM-1, at 1, 4, 10 and 70 nodes: 70 takes a
// second bitset word.
func TestTwoHopPerTriple(t *testing.T) {
	hub := rdf.NewDataset()
	for i := 0; i < 500; i++ {
		v := fmt.Sprintf("v%d", i)
		hub.Add(v, "type", "Hub")
		hub.Add(v, "next", fmt.Sprintf("v%d", (i*7+3)%500))
	}
	datasets := []struct {
		name string
		ds   *rdf.Dataset
	}{
		{"lubm1", lubm.Generate(lubm.Config{Universities: 1, Seed: 1})},
		{"hub", hub},
		{"chain", chainDataset()},
	}
	for _, c := range []struct {
		m Method
		// anchors calls f with every vertex whose element holds tr.
		anchors func(g *rdf.Graph, tr rdf.Triple, f func(rdf.TermID))
	}{
		{TwoHopForward, func(g *rdf.Graph, tr rdf.Triple, f func(rdf.TermID)) {
			f(tr.S)
			for _, e := range g.In(tr.S) {
				f(e.To)
			}
		}},
		{TwoHopBidirectional, func(g *rdf.Graph, tr rdf.Triple, f func(rdf.TermID)) {
			for _, v := range []rdf.TermID{tr.S, tr.O} {
				f(v)
				for _, e := range g.In(v) {
					f(e.To)
				}
				for _, e := range g.Out(v) {
					f(e.To)
				}
			}
		}},
	} {
		for _, d := range datasets {
			g := rdf.NewGraph(d.ds.Triples)
			for _, nodes := range []int{1, 4, 10, 70} {
				want := make([][]rdf.Triple, nodes)
				on := make([]bool, nodes)
				for _, tr := range d.ds.Triples {
					clear(on)
					c.anchors(g, tr, func(v rdf.TermID) { on[hashNode(v, nodes)] = true })
					for n, ok := range on {
						if ok {
							want[n] = append(want[n], tr)
						}
					}
				}
				got, err := c.m.Partition(d.ds, nodes)
				if err != nil {
					t.Fatal(err)
				}
				for n := range want {
					if !slices.Equal(got.Triples[n], want[n]) {
						t.Fatalf("%s on %s at %d nodes: node %d holds %d triples, the per-triple walk %d",
							c.m.Name(), d.name, nodes, n, len(got.Triples[n]), len(want[n]))
					}
				}
			}
		}
	}
}

func TestPartitionRejectsBadNodeCount(t *testing.T) {
	ds := chainDataset()
	for _, m := range []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop} {
		if _, err := m.Partition(ds, 0); err == nil {
			t.Errorf("%s accepted 0 nodes", m.Name())
		}
	}
	if _, err := (Method{}).Partition(ds, 4); err == nil {
		t.Error("the zero Method partitioned")
	}
}

func TestHashSOCollocation(t *testing.T) {
	// Every pair of triples sharing a subject or object must be
	// collocated on at least one node under HashSO.
	ds := chainDataset()
	p, err := HashSO.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	where := map[rdf.Triple]map[int]bool{}
	for n, ts := range p.Triples {
		for _, tr := range ts {
			if where[tr] == nil {
				where[tr] = map[int]bool{}
			}
			where[tr][n] = true
		}
	}
	for _, a := range ds.Triples {
		for _, b := range ds.Triples {
			share := a.S == b.S || a.O == b.O || a.S == b.O || a.O == b.S
			if !share {
				continue
			}
			collocated := false
			for n := range where[a] {
				if where[b][n] {
					collocated = true
					break
				}
			}
			if !collocated {
				t.Errorf("triples %v and %v share a vertex but are not collocated", ds.String(a), ds.String(b))
			}
		}
	}
}

func TestPathBMCElementsWhole(t *testing.T) {
	// Every forward closure from a start vertex must live on one node.
	ds := chainDataset()
	p, err := PathBMC.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Start vertices: "a" and "x". Closure of "a": a→b, b→c, c→d, a→e.
	// The element of "a" has 4 triples; check some node holds all 4.
	found := false
	for _, node := range p.Triples {
		count := 0
		for _, tr := range node {
			switch ds.String(tr) {
			case "<a> <p> <b>", "<b> <p> <c>", "<c> <p> <d>", "<a> <q> <e>":
				count++
			}
		}
		if count == 4 {
			found = true
		}
	}
	if !found {
		t.Error("no node holds the complete forward closure of vertex a")
	}
}

func TestPathBMCCoversCycles(t *testing.T) {
	ds := rdf.NewDataset()
	// Pure cycle: no start vertex.
	ds.Add("a", "p", "b")
	ds.Add("b", "p", "c")
	ds.Add("c", "p", "a")
	p, err := PathBMC.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, ds, p)
}

func TestGreedyEdgeCutBalance(t *testing.T) {
	ds := rdf.NewDataset()
	for i := 0; i < 50; i++ {
		ds.Add(string(rune('a'+i%26))+"x", "p", string(rune('a'+(i+1)%26))+"x")
	}
	g := rdf.NewGraph(ds.Triples)
	assign := greedyEdgeCut(g, 4)
	counts := map[int]int{}
	for _, n := range assign {
		if n >= 0 { // -1: the ID is no vertex (the predicate)
			counts[n]++
		}
	}
	if len(counts) < 2 {
		t.Errorf("partitioner used %d nodes", len(counts))
	}
	for n, c := range counts {
		if c > (g.NumVertices()+3)/4+1 {
			t.Errorf("node %d overloaded: %d vertices", n, c)
		}
	}
}

func TestTwoHopForwardCombineQuery(t *testing.T) {
	g := fig1Graph(t)
	b := slices.Index(g.Terms, sparql.V("b"))
	// 2 hops forward from ?b: tp1 (?b→?a), tp5 (?b→?f), then ?a's
	// out-edges tp3 (?a→?e), tp7 (?a→?d).
	got := TwoHopForward.CombineQuery(g, b)
	if got != bitset.Of(0, 2, 4, 6) {
		t.Errorf("2f MLQ(?b) = %v, want {0,2,4,6}", got)
	}
}

func TestTwoHopBidirectionalCombineQuery(t *testing.T) {
	g := fig1Graph(t)
	b := slices.Index(g.Terms, sparql.V("b"))
	// 2 undirected hops from ?b: tp1, tp5 (hop 1 via ?b), then every
	// pattern touching ?a or ?f (hop 2): tp2, tp3, tp7.
	got := TwoHopBidirectional.CombineQuery(g, b)
	if got != bitset.Of(0, 1, 2, 4, 6) {
		t.Errorf("2fb MLQ(?b) = %v, want {0,1,2,4,6}", got)
	}
}

func TestTwoHopBidirectionalSupersetsOf2f(t *testing.T) {
	// The bidirectional closure always contains the forward closure,
	// so 2fb detects at least the local queries 2f does.
	g := fig1Graph(t)
	for v := range g.Terms {
		f := TwoHopForward.CombineQuery(g, v)
		fb := TwoHopBidirectional.CombineQuery(g, v)
		if !f.SubsetOf(fb) {
			t.Errorf("vertex %d: 2f %v not within 2fb %v", v, f, fb)
		}
	}
}
