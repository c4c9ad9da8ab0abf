package querygraph

import (
	"slices"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/sparql"
)

// fig1 is the running-example query of paper Fig. 1a. Pattern indexes
// 0..6 correspond to tp1..tp7.
const fig1 = `SELECT * WHERE {
	?b <p1> ?a .
	?c <p2> ?a .
	?a <p3> ?e .
	?e <p4> ?g .
	?b <p5> ?f .
	?c <p6> ?d .
	?a <p7> ?d .
}`

// fig4 reproduces the join graph of paper Fig. 4: join variable ?v has
// two indivisible components {tp1,tp2}, {tp3,tp4} and one divisible
// component {tp5..tp9}. Pattern indexes 0..8 correspond to tp1..tp9.
const fig4 = `SELECT * WHERE {
	?v <p> ?w1 .
	?w1 <p> ?x2 .
	?v <p> ?w2 .
	?w2 <p> ?x4 .
	?v ?a ?bv .
	?a ?e8 ?c .
	?c <p> ?x7 .
	?bv ?e8 ?d .
	?d <p> ?v .
}`

func mustJoinGraph(t *testing.T, src string) *JoinGraph {
	t.Helper()
	jg, err := NewJoinGraph(sparql.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return jg
}

func TestFig1JoinGraph(t *testing.T) {
	jg := mustJoinGraph(t, fig1)
	if jg.NumTP != 7 {
		t.Fatalf("NumTP = %d", jg.NumTP)
	}
	// Join variables: a, b, c, e, d (g and f appear once).
	if jg.NumJoinVars() != 5 {
		t.Fatalf("join vars = %v", jg.Vars)
	}
	a, ok := jg.VarIndex["a"]
	if !ok {
		t.Fatal("?a missing")
	}
	if jg.Ntp[a] != bitset.Of(0, 1, 2, 6) {
		t.Errorf("Ntp(?a) = %v", jg.Ntp[a])
	}
	c := jg.VarIndex["c"]
	if jg.Ntp[c] != bitset.Of(1, 5) {
		t.Errorf("Ntp(?c) = %v, want {1,5} (Example 1)", jg.Ntp[c])
	}
	if jg.MaxVarDegree() != 4 {
		t.Errorf("MaxVarDegree = %d, want 4", jg.MaxVarDegree())
	}
	if got := jg.Classify(); got != Dense {
		t.Errorf("Classify = %v, want dense", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name, src string
		want      Class
	}{
		{"star3", `SELECT * WHERE { ?a <p1> ?x . ?b <p2> ?x . ?c <p3> ?x . }`, Star},
		{"star2", `SELECT * WHERE { ?a <p1> ?x . ?b <p2> ?x . }`, Star},
		{"single", `SELECT * WHERE { ?a <p1> ?x . }`, Star},
		{"chain3", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?w . }`, Chain},
		{"chain2vars", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x2 . ?x2 <p> ?q . }`, Chain},
		{"cycle3", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?x . }`, Cycle},
		{"cycle4", `SELECT * WHERE { ?x <p> ?y . ?y <p> ?z . ?z <p> ?w . ?w <p> ?x . }`, Cycle},
		{"tree", `SELECT * WHERE { ?a <p> ?x . ?b <p> ?x . ?x <p> ?c . ?c <p> ?d . }`, Tree},
		{"dense", fig1, Dense},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jg := mustJoinGraph(t, c.src)
			if got := jg.Classify(); got != c.want {
				t.Errorf("Classify(%s) = %v, want %v", c.name, got, c.want)
			}
		})
	}
}

func TestConnected(t *testing.T) {
	jg := mustJoinGraph(t, fig1)
	if !jg.Connected(jg.All()) {
		t.Error("full query should be connected")
	}
	// {tp1, tp5} share ?b.
	if !jg.Connected(bitset.Of(0, 4)) {
		t.Error("{tp1,tp5} should be connected")
	}
	// {tp4, tp5} share nothing (?e?g vs ?b?f).
	if jg.Connected(bitset.Of(3, 4)) {
		t.Error("{tp4,tp5} should be disconnected")
	}
	// {tp1, tp2, tp6} : tp1-?a-tp2, tp2-?c-tp6.
	if !jg.Connected(bitset.Of(0, 1, 5)) {
		t.Error("{tp1,tp2,tp6} should be connected")
	}
	if !jg.Connected(0) || !jg.Connected(bitset.Of(2)) {
		t.Error("empty/singleton must be connected")
	}
}

func TestComponents(t *testing.T) {
	jg := mustJoinGraph(t, fig1)
	// {tp4, tp5, tp6}: pairwise disconnected.
	comps := jg.Components(bitset.Of(3, 4, 5))
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	// Ordered by smallest member.
	if comps[0] != bitset.Of(3) || comps[1] != bitset.Of(4) || comps[2] != bitset.Of(5) {
		t.Errorf("components = %v", comps)
	}
}

func TestComponentsExcludingFig4(t *testing.T) {
	jg := mustJoinGraph(t, fig4)
	v, ok := jg.VarIndex["v"]
	if !ok {
		t.Fatal("?v missing")
	}
	if jg.Ntp[v] != bitset.Of(0, 2, 4, 8) {
		t.Fatalf("Ntp(?v) = %v, want {tp1,tp3,tp5,tp9}", jg.Ntp[v])
	}
	comps := jg.ComponentsExcluding(jg.All(), v)
	if len(comps) != 3 {
		t.Fatalf("components excluding ?v = %v, want 3 (Fig. 4)", comps)
	}
	want := []bitset.TPSet{bitset.Of(0, 1), bitset.Of(2, 3), bitset.Of(4, 5, 6, 7, 8)}
	for i := range want {
		if comps[i] != want[i] {
			t.Errorf("component %d = %v, want %v", i, comps[i], want[i])
		}
	}
	if connectedExcluding(jg, jg.All(), v) {
		t.Error("graph should fall apart without ?v")
	}
	if !connectedExcluding(jg, bitset.Of(4, 5, 6, 7, 8), v) {
		t.Error("divisible component itself should stay connected")
	}
}

func TestJoinVarsOf(t *testing.T) {
	jg := mustJoinGraph(t, fig1)
	// Subquery {tp1, tp2}: only ?a is shared.
	vars := jg.JoinVarsOf(bitset.Of(0, 1))
	if len(vars) != 1 || jg.Vars[vars[0]] != "a" {
		t.Errorf("JoinVarsOf = %v", vars)
	}
	// Full query: all five.
	if got := jg.JoinVarsOf(jg.All()); len(got) != 5 {
		t.Errorf("JoinVarsOf(all) = %v", got)
	}
	// Singleton: none.
	if got := jg.JoinVarsOf(bitset.Of(0)); got != nil {
		t.Errorf("JoinVarsOf(singleton) = %v", got)
	}
}

func TestAdjIn(t *testing.T) {
	jg := mustJoinGraph(t, fig1)
	// tp1 (idx 0) shares ?b with tp5 (4) and ?a with tp2 (1), tp3 (2), tp7 (6).
	if got := adjIn(jg, jg.All(), 0); got != bitset.Of(1, 2, 4, 6) {
		t.Errorf("AdjIn(all, tp1) = %v", got)
	}
	// Restricted to {tp1, tp5, tp4}.
	if got := adjIn(jg, bitset.Of(0, 3, 4), 0); got != bitset.Of(4) {
		t.Errorf("AdjIn(subset, tp1) = %v", got)
	}
}

func TestAdjOf(t *testing.T) {
	jg := mustJoinGraph(t, fig4)
	// Frontier of SQ={tp1,tp2} in the whole query: tp3, tp5, tp9 (via
	// ?v), exactly the set A of paper Example 6.
	got := jg.AdjOf(jg.All(), bitset.Of(0, 1))
	if got != bitset.Of(2, 4, 8) {
		t.Errorf("AdjOf = %v, want {tp3,tp5,tp9}", got)
	}
}

func TestNewJoinGraphErrors(t *testing.T) {
	if _, err := NewJoinGraph(&sparql.Query{}); err == nil {
		t.Error("empty query accepted")
	}
	big := &sparql.Query{}
	for i := 0; i < bitset.MaxPatterns+1; i++ {
		big.Patterns = append(big.Patterns, sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("p"), O: sparql.V("y")})
	}
	if _, err := NewJoinGraph(big); err == nil {
		t.Error("oversized query accepted")
	}
}

func TestQueryGraph(t *testing.T) {
	g := NewGraph(sparql.MustParse(fig1))
	// Vertices: ?b ?a ?c ?e ?g ?f ?d = 7 (all variables; no constants).
	if g.NumVertices() != 7 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	a, ok := vertexOf(g, sparql.V("a"))
	if !ok {
		t.Fatal("?a not a vertex")
	}
	// ?a is object of tp1, tp2; subject of tp3, tp7.
	if g.SubjOf[a] != bitset.Of(2, 6) {
		t.Errorf("SubjOf(?a) = %v", g.SubjOf[a])
	}
	if g.ObjOf[a] != bitset.Of(0, 1) {
		t.Errorf("ObjOf(?a) = %v", g.ObjOf[a])
	}
	if g.Incident(a) != bitset.Of(0, 1, 2, 6) {
		t.Errorf("Incident(?a) = %v", g.Incident(a))
	}
}

func TestForwardClosure(t *testing.T) {
	g := NewGraph(sparql.MustParse(fig1))
	b, _ := vertexOf(g, sparql.V("b"))
	// Paper Example 5: all patterns reachable from ?b are
	// {tp1, tp3, tp4, tp5, tp7} (indexes 0,2,3,4,6).
	got := g.ForwardClosure(b, -1)
	if got != bitset.Of(0, 2, 3, 4, 6) {
		t.Errorf("ForwardClosure(?b, inf) = %v, want {0,2,3,4,6}", got)
	}
	// One hop: just tp1 and tp5.
	if got := g.ForwardClosure(b, 1); got != bitset.Of(0, 4) {
		t.Errorf("ForwardClosure(?b, 1) = %v", got)
	}
	// Two hops: tp1, tp5 plus ?a's and ?f's out-edges (tp3, tp7).
	if got := g.ForwardClosure(b, 2); got != bitset.Of(0, 2, 4, 6) {
		t.Errorf("ForwardClosure(?b, 2) = %v", got)
	}
}

func TestUndirectedClosure(t *testing.T) {
	g := NewGraph(sparql.MustParse(fig1))
	a, _ := vertexOf(g, sparql.V("a"))
	// Paper Example 7 (hash partitioning, undirected 1 hop from ?a):
	// {tp1, tp2, tp3, tp7}.
	if got := g.UndirectedClosure(a, 1); got != bitset.Of(0, 1, 2, 6) {
		t.Errorf("UndirectedClosure(?a, 1) = %v, want {0,1,2,6}", got)
	}
	// Unbounded: everything (the query graph is connected).
	if got := g.UndirectedClosure(a, -1); got != bitset.Full(7) {
		t.Errorf("UndirectedClosure(?a, inf) = %v", got)
	}
}

func TestBuild(t *testing.T) {
	v, err := Build(sparql.MustParse(fig1))
	if err != nil {
		t.Fatal(err)
	}
	if v.Join.NumTP != 7 || v.Query.NumVertices() != 7 {
		t.Error("Build produced inconsistent views")
	}
	if _, err := Build(&sparql.Query{}); err == nil {
		t.Error("Build accepted empty query")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{Star: "star", Chain: "chain", Cycle: "cycle", Tree: "tree", Dense: "dense"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// adjIn returns the neighbors of pattern tp inside s (patterns of s
// sharing a join variable with tp), excluding tp itself.
func adjIn(jg *JoinGraph, s bitset.TPSet, tp int) bitset.TPSet {
	return jg.Adj[tp].Intersect(s).Remove(tp)
}

// connectedExcluding reports whether s stays connected when join
// variable vj is removed from the join graph.
func connectedExcluding(jg *JoinGraph, s bitset.TPSet, vj int) bool {
	return s.Len() <= 1 || jg.ReachExcluding(s, bitset.Single(s.Min()), vj) == s
}

// vertexOf returns the vertex index of term t, if t appears as a
// subject or object.
func vertexOf(g *Graph, t sparql.Term) (int, bool) {
	i := slices.Index(g.Terms, t)
	return i, i >= 0
}
