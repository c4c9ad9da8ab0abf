package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

// TestJoinOrder pins the variable order of the local joins 2f leaves in
// L7–L10's plans (LUBM-1, four nodes): the variables shared by the most
// inputs first, ties to the smallest input holding one, every next
// variable sharing an input with one already ordered. A disconnected
// order cost L10 up to 100× in the trie join's sizing.
func TestJoinOrder(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	placement, err := partition.TwoHopForward.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	env := ExecEnv{Snap: e.Snapshot()}
	want := map[string][]string{
		"L7":  {"y", "z", "x"},
		"L8":  {"y", "x", "z"},
		"L9":  {"x", "f", "c", "y"},
		"L10": {"x", "z", "f", "c", "y"},
	}
	for _, name := range []string{"L7", "L8", "L9", "L10"} {
		q := lubm.Query(name)
		var local *plan.Node
		var walk func(p *plan.Node)
		walk = func(p *plan.Node) {
			if p.Alg == plan.LocalJoin && (local == nil || p.Set.Len() > local.Set.Len()) {
				local = p
			}
			for _, c := range p.Children {
				walk(c)
			}
		}
		walk(optimizeFor(t, ds, q, partition.TwoHopForward, opt.TDAuto).Plan)
		if local == nil {
			t.Fatalf("%s: no local join under 2f", name)
		}
		start := time.Now()
		in, err := e.joinInputs(context.Background(), local, q, env, newTrace(local), &start)
		if err != nil {
			t.Fatal(err)
		}
		vars := make([][]string, len(in.sizes))
		for i, r := range in.rels[0] {
			vars[i] = inputVars(r, in.leaves[i])
		}
		order := joinOrder(vars, in.sizes)
		if !slices.Equal(order, want[name]) {
			t.Errorf("%s ⋈L on ?%s: order %v, want %v (inputs %v, sizes %v)", name, local.JoinVar, order, want[name], vars, in.sizes)
		}
	}
	for _, c := range []struct {
		name  string
		vars  [][]string
		sizes []int64
		order []string
	}{
		{"most inputs first", [][]string{{"x", "y"}, {"y"}, {"x", "z"}, {"x"}, {"z", "y"}, {"x"}}, []int64{5, 1, 5, 5, 5, 5},
			[]string{"x", "y", "z"}},
		{"ties to the smallest input, then first appearance", [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}, []int64{30, 20, 10},
			[]string{"a", "c", "b"}},
		{"connected before smaller", [][]string{{"a"}, {"a"}, {"a", "v"}, {"v"}, {"u"}, {"u"}}, []int64{1, 1, 50, 50, 5, 5},
			[]string{"a", "v", "u"}},
		{"a variable one input holds is not ordered", [][]string{{"x", "o1"}, {"x", "o2"}}, []int64{1, 2},
			[]string{"x"}},
	} {
		if order := joinOrder(c.vars, c.sizes); !slices.Equal(order, c.order) {
			t.Errorf("%s: order %v, want %v", c.name, order, c.order)
		}
	}
}

// TestDeterminismTrieJoin holds the local trie join to the test-only
// hash fold over random fragments with 0–3 delta chunks: cycles (a
// triangle, a 4-cycle, two triangles sharing an edge), a star with a
// second shared variable, a repeated variable, <s> ?p ?x, an unknown
// constant and a non-leaf input, each healthy and with every single node
// dead (its leaves failover-read). On every node the rows must be the
// multiset the fold over the node's reads returns, the schema the join's
// (the fold's variables), and every leaf's postings no more than its
// read's.
func TestDeterminismTrieJoin(t *testing.T) {
	scan := func(tp int) *plan.Node { return plan.NewScan(tp, 1, cost.Default) }
	local := func(children ...*plan.Node) *plan.Node {
		return plan.NewJoin(plan.LocalJoin, "x", children, 1, cost.Default)
	}
	flat := func(k int) *plan.Node {
		scans := make([]*plan.Node, k)
		for i := range scans {
			scans[i] = scan(i)
		}
		return local(scans...)
	}
	cases := []struct {
		name, src string
		plan      *plan.Node
	}{
		{"triangle", `?x <p> ?y . ?y <q> ?z . ?z <p> ?x`, flat(3)},
		{"4-cycle", `?x <p> ?y . ?y <q> ?z . ?z <p> ?w . ?w <q> ?x`, flat(4)},
		{"two triangles", `?x <p> ?y . ?y <q> ?z . ?z <p> ?x . ?y <p> ?w . ?w <q> ?x`, flat(5)},
		{"star, second variable", `?x <p> ?y . ?x <q> ?y . ?x <p> ?z`, flat(3)},
		{"repeated variable", `?x <p> ?x . ?x <q> ?y . ?y <p> ?x`, flat(3)},
		{"<s> ?p ?x", `<e1> ?pa ?x . ?x <p> ?y . ?y ?pa <e2>`, flat(3)},
		{"unknown constant", `?x <p> ?y . ?y <nowhere> ?x`, flat(2)},
		{"non-leaf input", `?x <p> ?y . ?y <q> ?z . ?z <p> ?x . ?x <q> ?w`, local(local(scan(0), scan(1)), scan(2), scan(3))},
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(42))
	saw := map[string]bool{}
	for round := 0; round < 8; round++ {
		fx := randomMergeFixture(r, round%4)
		snap := fx.snap()
		n := len(fx.base)
		eng := &Engine{dict: fx.dict, fo: failoverOn(n)}
		eng.snap.Store(snap)
		for _, c := range cases {
			q := sparql.MustParse(`SELECT * WHERE { ` + c.src + ` . }`)
			ors := make([]*oracle, len(q.Patterns))
			for i, tp := range q.Patterns {
				ors[i] = newOracle(fx, tp)
			}
			for dead := -1; dead < n; dead++ {
				id := fmt.Sprintf("round %d: %s/dead=%d", round, c.name, dead)
				fo := &failoverState{}
				deadSet := map[int]bool{}
				if dead >= 0 {
					fo.markDead(dead, "scan")
					deadSet[dead] = true
				}
				start := time.Now()
				in, err := eng.joinInputs(ctx, c.plan, q, ExecEnv{Snap: snap, fo: fo}, newTrace(c.plan), &start)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				vars := make([][]string, len(in.sizes))
				for i, rel := range in.rels[0] {
					vars[i] = inputVars(rel, in.leaves[i])
				}
				join := newSortedJoin(vars, in.sizes, in.leaves, joinOrder(vars, in.sizes))
				// The patterns behind each of the operator's inputs.
				var tps [][]int
				for _, ch := range c.plan.Children {
					tps = append(tps, members(ch.Set))
				}
				for node := 0; node < n; node++ {
					reads := make([]*Relation, len(ors))
					for i, or := range ors {
						rows, _, missing, _ := or.read(node, deadSet)
						if missing > 0 {
							t.Fatalf("%s: fixture leaves a hole", id)
						}
						reads[i] = &Relation{Vars: or.vars, Rows: rows}
					}
					fold, err := hashFold(ctx, reads)
					if err != nil {
						t.Fatal(err)
					}
					before := make([]int64, len(in.leaves))
					for i, l := range in.leaves {
						if l != nil {
							before[i] = l.scanned.Load()
						}
					}
					got, err := join.join(ctx, nil, "local join", node, in.rels[node])
					if err != nil {
						t.Fatalf("%s: node %d: %v", id, node, err)
					}
					if !slices.Equal(got.Vars, join.schema) || !slices.Equal(sortedVars(got.Vars), sortedVars(fold.Vars)) {
						t.Errorf("%s: node %d schema %v, the join's %v, the fold's %v", id, node, got.Vars, join.schema, fold.Vars)
					}
					if !slices.Equal(canonRows(got), canonRows(fold)) {
						t.Errorf("%s: node %d joined to %v, the fold to %v", id, node, canonRows(got), canonRows(fold))
					}
					for i, l := range in.leaves {
						if l == nil {
							saw["non-leaf"] = saw["non-leaf"] || len(fold.Rows) > 0
							continue
						}
						or := ors[tps[i][0]]
						var read int64
						for _, ts := range append([][]rdf.Triple{fx.base[node]}, fx.delta...) {
							read += int64(len(or.candidates(ts)))
						}
						if postings := l.scanned.Load() - before[i]; postings > read {
							t.Errorf("%s: node %d: tp%d touched %d postings, its read %d", id, node, tps[i][0]+1, postings, read)
						}
						walked := join.inputs[i].ranges && l.rels[node] == nil
						saw["walked"] = saw["walked"] || walked && len(fold.Rows) > 0
						saw["read"] = saw["read"] || !walked && len(fold.Rows) > 0
						saw["failover"] = saw["failover"] || node == dead && len(fold.Rows) > 0
					}
					saw["delta"] = saw["delta"] || len(fx.delta) > 0 && len(fold.Rows) > 0
					saw[c.name] = saw[c.name] || len(fold.Rows) > 0 || c.name == "unknown constant"
				}
			}
		}
	}
	for _, what := range []string{"walked", "read", "failover", "delta", "non-leaf"} {
		if !saw[what] {
			t.Errorf("table degenerate: no case %s", what)
		}
	}
	for _, c := range cases {
		if !saw[c.name] {
			t.Errorf("table degenerate: %s never matched", c.name)
		}
	}
}

// members returns the members of s in increasing order.
func members(s bitset.TPSet) []int {
	var out []int
	s.Each(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
