package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/race"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/randquery"
	"sparqlopt/internal/workload/uniprot"
)

// fig1 and fig4 are the paper's running examples (see querygraph tests).
const fig1 = `SELECT * WHERE {
	?b <p1> ?a .
	?c <p2> ?a .
	?a <p3> ?e .
	?e <p4> ?g .
	?b <p5> ?f .
	?c <p6> ?d .
	?a <p7> ?d .
}`

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

func mustJG(t *testing.T, q *sparql.Query) *querygraph.JoinGraph {
	t.Helper()
	jg, err := querygraph.NewJoinGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	return jg
}

// collectCBDs runs Algorithm 2 and returns canonical pairs.
func collectCBDs(jg *querygraph.JoinGraph, q bitset.TPSet, vj int) [][2]bitset.TPSet {
	var out [][2]bitset.TPSet
	ConnBinDivision(jg, q, vj, func(a, b bitset.TPSet) bool {
		out = append(out, [2]bitset.TPSet{a, b})
		return true
	})
	return out
}

func cbdKeySet(t *testing.T, cbds [][2]bitset.TPSet) map[[2]bitset.TPSet]bool {
	t.Helper()
	set := map[[2]bitset.TPSet]bool{}
	for _, c := range cbds {
		if set[c] {
			t.Fatalf("duplicate cbd %v", c)
		}
		set[c] = true
	}
	return set
}

// assertCBDsMatchOracle compares Algorithm 2's output against the
// brute-force oracle on every join variable of q.
func assertCBDsMatchOracle(t *testing.T, jg *querygraph.JoinGraph, q bitset.TPSet) {
	t.Helper()
	for vj := range jg.Vars {
		got := cbdKeySet(t, collectCBDs(jg, q, vj))
		want := map[[2]bitset.TPSet]bool{}
		for _, c := range oracleCBDs(jg, q, vj) {
			want[c] = true
		}
		if len(got) != len(want) {
			t.Errorf("var %s: got %d cbds, oracle has %d", jg.Vars[vj], len(got), len(want))
		}
		for c := range want {
			if !got[c] {
				t.Errorf("var %s: missing cbd (%v, %v)", jg.Vars[vj], c[0], c[1])
			}
		}
		for c := range got {
			if !want[c] {
				t.Errorf("var %s: spurious cbd (%v, %v)", jg.Vars[vj], c[0], c[1])
			}
		}
	}
}

func TestCBDFig1(t *testing.T) {
	jg := mustJG(t, sparql.MustParse(fig1))
	assertCBDsMatchOracle(t, jg, jg.All())
}

func TestCBDFig4(t *testing.T) {
	jg := mustJG(t, sparql.MustParse(fig4))
	assertCBDsMatchOracle(t, jg, jg.All())
	// The paper's Example 6 walks three specific cbds on ?v; check
	// they are among the emitted ones (indexes: tp1..tp9 = 0..8).
	v := jg.VarIndex["v"]
	got := cbdKeySet(t, collectCBDs(jg, jg.All(), v))
	for _, want := range [][2]bitset.TPSet{
		{bitset.Of(0, 1), bitset.Of(2, 3, 4, 5, 6, 7, 8)},
		{bitset.Of(0, 1, 4), bitset.Of(2, 3, 5, 6, 7, 8)},
		{bitset.Of(0, 1, 4, 5, 6), bitset.Of(2, 3, 7, 8)},
	} {
		if !got[want] {
			t.Errorf("cbd (%v, %v) from Example 6 not emitted", want[0], want[1])
		}
	}
}

func TestCBDSubqueries(t *testing.T) {
	// Validate Algorithm 2 on every connected subquery of fig1.
	jg := mustJG(t, sparql.MustParse(fig1))
	jg.All().Subsets(func(sub bitset.TPSet) bool {
		if sub.Len() >= 2 && jg.Connected(sub) {
			assertCBDsMatchOracle(t, jg, sub)
		}
		return true
	})
}

func TestCBDClassicShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *sparql.Query
	}{
		{"chain5", chainQuery(5)},
		{"cycle5", cycleQuery(5)},
		{"cycle6", cycleQuery(6)},
		{"star5", starQuery(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jg := mustJG(t, tc.q)
			assertCBDsMatchOracle(t, jg, jg.All())
		})
	}
}

func TestCBDStarCount(t *testing.T) {
	// A star with n rays has 2^(n-1) − 1 cbds on its center variable:
	// any proper non-empty subset containing the seed.
	for n := 2; n <= 7; n++ {
		jg := mustJG(t, starQuery(n))
		c := jg.VarIndex["c"]
		got := len(collectCBDs(jg, jg.All(), c))
		want := 1<<(n-1) - 1
		if got != want {
			t.Errorf("star %d: %d cbds, want %d", n, got, want)
		}
	}
}

func TestCBDChainCount(t *testing.T) {
	// A chain has exactly one cbd per interior join variable.
	jg := mustJG(t, chainQuery(6))
	for vj := range jg.Vars {
		if got := len(collectCBDs(jg, jg.All(), vj)); got != 1 {
			t.Errorf("chain var %s: %d cbds, want 1", jg.Vars[vj], got)
		}
	}
}

func TestCBDEarlyStop(t *testing.T) {
	jg := mustJG(t, starQuery(6))
	n := 0
	ConnBinDivision(jg, jg.All(), jg.VarIndex["c"], func(a, b bitset.TPSet) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("emitted %d cbds after early stop", n)
	}
}

func TestCBDDegenerate(t *testing.T) {
	jg := mustJG(t, chainQuery(3))
	// Singleton set, or a variable with fewer than two neighbors in
	// the set: no cbds.
	if got := collectCBDs(jg, bitset.Of(0), 0); len(got) != 0 {
		t.Errorf("singleton emitted %v", got)
	}
	if got := collectCBDs(jg, bitset.Of(0, 1), jg.VarIndex["x2"]); len(got) != 0 {
		t.Errorf("degree-1 variable emitted %v", got)
	}
}

// collectCMDs runs Algorithm 3 and returns canonical keys.
func collectCMDs(t *testing.T, jg *querygraph.JoinGraph, q bitset.TPSet, prune bool) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	ConnMultiDivision(jg, q, prune, func(cmd CMD) bool {
		key := cmdKey(cmd.Parts, cmd.Var)
		if seen[key] {
			t.Fatalf("duplicate cmd %s", key)
		}
		seen[key] = true
		out = append(out, key)
		return true
	})
	return out
}

func assertCMDsMatchOracle(t *testing.T, jg *querygraph.JoinGraph, q bitset.TPSet) {
	t.Helper()
	got := collectCMDs(t, jg, q, false)
	want := oracleCMDs(jg, q)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("got %d cmds, oracle has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("cmd mismatch at %d: got %s, want %s", i, got[i], want[i])
			break
		}
	}
}

func TestCMDFig1(t *testing.T) {
	jg := mustJG(t, sparql.MustParse(fig1))
	assertCMDsMatchOracle(t, jg, jg.All())
	// Example 4's two cmds on ?a must be present.
	a := jg.VarIndex["a"]
	all := collectCMDs(t, jg, jg.All(), false)
	set := map[string]bool{}
	for _, k := range all {
		set[k] = true
	}
	ex1 := cmdKey([]bitset.TPSet{bitset.Of(0, 4), bitset.Of(6), bitset.Of(1, 5), bitset.Of(2, 3)}, a)
	ex2 := cmdKey([]bitset.TPSet{bitset.Of(0, 4, 6), bitset.Of(1, 5), bitset.Of(2, 3)}, a)
	if !set[ex1] {
		t.Errorf("Example 4 cmd ({tp1,tp5},{tp7},{tp2,tp6},{tp3,tp4},?a) missing")
	}
	if !set[ex2] {
		t.Errorf("Example 4 cmd ({tp1,tp5,tp7},{tp2,tp6},{tp3,tp4},?a) missing")
	}
}

func TestCMDFig4(t *testing.T) {
	jg := mustJG(t, sparql.MustParse(fig4))
	assertCMDsMatchOracle(t, jg, jg.All())
}

func TestCMDClassicShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *sparql.Query
	}{
		{"chain6", chainQuery(6)},
		{"cycle6", cycleQuery(6)},
		{"star6", starQuery(6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jg := mustJG(t, tc.q)
			assertCMDsMatchOracle(t, jg, jg.All())
		})
	}
}

func TestCMDStarIsBellNumber(t *testing.T) {
	// |D_cmd(star_n)| = B_n − 1 (§III-D).
	bell := []int{1, 1, 2, 5, 15, 52, 203, 877}
	for n := 2; n <= 7; n++ {
		jg := mustJG(t, starQuery(n))
		got := len(collectCMDs(t, jg, jg.All(), false))
		if got != bell[n]-1 {
			t.Errorf("star %d: %d cmds, want B_%d − 1 = %d", n, got, n, bell[n]-1)
		}
	}
}

func TestCMDCycleCount(t *testing.T) {
	// |D_cmd(cycle_n)| = n(n−1) (§III-D).
	for n := 3; n <= 7; n++ {
		jg := mustJG(t, cycleQuery(n))
		got := len(collectCMDs(t, jg, jg.All(), false))
		if got != n*(n-1) {
			t.Errorf("cycle %d: %d cmds, want %d", n, got, n*(n-1))
		}
	}
}

func TestCCMDPruning(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *sparql.Query
	}{
		{"star5", starQuery(5)},
		{"fig1", sparql.MustParse(fig1)},
		{"fig4", sparql.MustParse(fig4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jg := mustJG(t, tc.q)
			got := collectCMDs(t, jg, jg.All(), true)
			want := oracleCCMDs(jg, jg.All())
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("got %d pruned cmds, oracle has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mismatch at %d: got %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}

func TestCCMDStarPrunedCount(t *testing.T) {
	// For a star with n rays, pruned divisions are: binary cbds
	// (2^(n−1) − 1) plus the single all-singletons ccmd... every part
	// must contain exactly one vj-neighbor, and in a star every
	// pattern is a neighbor, so parts are singletons: exactly one ccmd
	// with k = n > 2.
	for n := 3; n <= 7; n++ {
		jg := mustJG(t, starQuery(n))
		got := len(collectCMDs(t, jg, jg.All(), true))
		want := 1<<(n-1) - 1 + 1
		if got != want {
			t.Errorf("star %d pruned: %d, want %d", n, got, want)
		}
	}
}

func TestCMDEarlyStop(t *testing.T) {
	jg := mustJG(t, starQuery(6))
	n := 0
	ConnMultiDivision(jg, jg.All(), false, func(CMD) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Errorf("emitted %d cmds after early stop", n)
	}
}

// TestQuickCBDAndCMDRandom cross-checks both enumerators against the
// oracles on random connected queries of every shape.
func TestQuickCBDAndCMDRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(6) // up to 7 patterns keeps the oracle cheap
		q := randomConnectedQuery(r, n)
		jg := mustJG(t, q)
		name := fmt.Sprintf("trial%d_n%d", trial, n)
		t.Run(name, func(t *testing.T) {
			assertCBDsMatchOracle(t, jg, jg.All())
			assertCMDsMatchOracle(t, jg, jg.All())
			// Pruned enumeration matches the ccmd oracle too.
			got := collectCMDs(t, jg, jg.All(), true)
			want := oracleCCMDs(jg, jg.All())
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("pruned: got %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pruned mismatch: got %s, want %s", got[i], want[i])
				}
			}
		})
	}
}

// TestCMDPartsAreValid asserts the structural conditions of
// Definition 3 on everything Algorithm 3 emits for a few shapes.
func TestCMDPartsAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(7))
		jg := mustJG(t, q)
		ConnMultiDivision(jg, jg.All(), false, func(cmd CMD) bool {
			var union bitset.TPSet
			neighbors := jg.Ntp[cmd.Var]
			if len(cmd.Parts) < 2 {
				t.Fatalf("cmd with %d parts", len(cmd.Parts))
			}
			for _, p := range cmd.Parts {
				if union.Overlaps(p) {
					t.Fatalf("overlapping parts in %v", cmd.Parts)
				}
				union = union.Union(p)
				if !jg.Connected(p) {
					t.Fatalf("disconnected part %v", p)
				}
				if !p.Overlaps(neighbors) {
					t.Fatalf("part %v has no %s-neighbor", p, jg.Vars[cmd.Var])
				}
			}
			if union != jg.All() {
				t.Fatalf("parts cover %v, want all", union)
			}
			return true
		})
	}
}

// TestDivisionsAllocateNothing: Algorithms 2 and 3 cost bit operations,
// not allocations. Over L10's join graph neither enumerator may
// allocate, pruned or not, once the parts buffer is pooled.
func TestDivisionsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	jg := mustJG(t, lubm.Query("L10"))
	all := jg.All()
	var n int
	for _, prune := range []bool{false, true} {
		ConnMultiDivision(jg, all, prune, func(CMD) bool { return true }) // warm the pool
		if a := testing.AllocsPerRun(5, func() {
			ConnMultiDivision(jg, all, prune, func(cmd CMD) bool {
				n += len(cmd.Parts)
				return true
			})
		}); a != 0 {
			t.Errorf("ConnMultiDivision(L10, prune=%v): %v allocs per run, want 0", prune, a)
		}
	}
	if a := testing.AllocsPerRun(5, func() {
		for vj := range jg.Vars {
			ConnBinDivision(jg, all, vj, func(sq, rest bitset.TPSet) bool {
				n += sq.Len()
				return true
			})
		}
	}); a != 0 {
		t.Errorf("ConnBinDivision(L10): %v allocs per run, want 0", a)
	}
	if n == 0 {
		t.Fatal("L10 produced no divisions")
	}
}

// TestPrunedIsFilteredUnpruned pins Rule 1's enumeration order beyond
// the golden plans: on every connected subquery of L1–L10, U1–U5 and
// random graphs of every class, ConnMultiDivision(prune=true) emits
// exactly the cmds ConnMultiDivision(prune=false) emits that are
// binary or complete (every part holds one v_j-neighbour), in the same
// order. The memo breaks ties between equal-cost plans by that order.
func TestPrunedIsFilteredUnpruned(t *testing.T) {
	queries := map[string]*sparql.Query{}
	for _, name := range lubm.QueryNames {
		queries[name] = lubm.Query(name)
	}
	for _, name := range uniprot.QueryNames {
		queries[name] = uniprot.Query(name)
	}
	for _, class := range []querygraph.Class{querygraph.Star, querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense} {
		for _, n := range []int{4, 7, 10} {
			for seed := int64(1); seed <= 5; seed++ {
				q, _ := randquery.Generate(class, n, seed)
				queries[fmt.Sprintf("%v%d-s%d", class, n, seed)] = q
			}
		}
	}
	// flatten appends one cmd to a sequence as its variable, its part
	// count and its parts.
	flatten := func(seq []uint64, cmd CMD) []uint64 {
		seq = append(seq, uint64(cmd.Var), uint64(len(cmd.Parts)))
		for _, p := range cmd.Parts {
			seq = append(seq, uint64(p))
		}
		return seq
	}
	subqueries := 0
	for name, q := range queries {
		jg := mustJG(t, q)
		var want, got []uint64
		jg.All().Subsets(func(sub bitset.TPSet) bool {
			if sub.Len() < 2 || !jg.Connected(sub) {
				return true
			}
			subqueries++
			want, got = want[:0], got[:0]
			ConnMultiDivision(jg, sub, false, func(cmd CMD) bool {
				complete := true
				for _, p := range cmd.Parts {
					complete = complete && jg.Ntp[cmd.Var].Intersect(p).Len() == 1
				}
				if len(cmd.Parts) == 2 || complete {
					want = flatten(want, cmd)
				}
				return true
			})
			ConnMultiDivision(jg, sub, true, func(cmd CMD) bool {
				got = flatten(got, cmd)
				return true
			})
			if !slices.Equal(got, want) {
				t.Errorf("%s, subquery %v: pruned enumeration is not the filtered unpruned one", name, sub)
				return false
			}
			return true
		})
	}
	t.Logf("%d queries, %d connected subqueries", len(queries), subqueries)
}
