package querygraph_test

import (
	"math/rand"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/workload/randquery"
)

// oracleReach is ReachExcluding by explicit depth-first search: two
// patterns are adjacent when their TPVars lists share a variable other
// than vj. It shares no code, and no precomputed mask, with the
// implementation.
func oracleReach(jg *querygraph.JoinGraph, s, from bitset.TPSet, vj int) bitset.TPSet {
	adjacent := func(a, b int) bool {
		for _, u := range jg.TPVars[a] {
			if u == vj {
				continue
			}
			for _, v := range jg.TPVars[b] {
				if u == v {
					return true
				}
			}
		}
		return false
	}
	var seen bitset.TPSet
	var stack []int
	for i := 0; i < jg.NumTP; i++ {
		if s.Has(i) && from.Has(i) {
			seen = seen.Add(i)
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for b := 0; b < jg.NumTP; b++ {
			if b != a && s.Has(b) && !seen.Has(b) && adjacent(a, b) {
				seen = seen.Add(b)
				stack = append(stack, b)
			}
		}
	}
	return seen
}

// oracleComponents splits s into its components without vj, ordered by
// smallest member.
func oracleComponents(jg *querygraph.JoinGraph, s bitset.TPSet, vj int) []bitset.TPSet {
	var out []bitset.TPSet
	for rest := s; !rest.IsEmpty(); {
		c := oracleReach(jg, rest, bitset.Single(rest.Min()), vj)
		out = append(out, c)
		rest = rest.Diff(c)
	}
	return out
}

// TestReachExcludingOracle holds ReachExcluding, ComponentsExcluding
// and ConnectedExcluding to the brute-force oracle on random join
// graphs of all five classes, 4–24 patterns, over random subsets and
// source sets and every join variable.
func TestReachExcludingOracle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	classes := []querygraph.Class{querygraph.Star, querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense}
	for _, class := range classes {
		for n := 4; n <= 24; n += 2 {
			q, _ := randquery.Generate(class, n, int64(n))
			jg, err := querygraph.NewJoinGraph(q)
			if err != nil {
				t.Fatal(err)
			}
			all := jg.All()
			for trial := 0; trial < 40; trial++ {
				s := all
				if trial > 0 {
					s = bitset.TPSet(r.Uint64()) & all
				}
				from := bitset.TPSet(r.Uint64()) & all
				for vj := 0; vj < jg.NumJoinVars(); vj++ {
					if got, want := jg.ReachExcluding(s, from, vj), oracleReach(jg, s, from, vj); got != want {
						t.Fatalf("%v-%d: ReachExcluding(%v, %v, %d) = %v, oracle %v", class, n, s, from, vj, got, want)
					}
					got, want := jg.ComponentsExcluding(s, vj), oracleComponents(jg, s, vj)
					if len(got) != len(want) {
						t.Fatalf("%v-%d: ComponentsExcluding(%v, %d) = %v, oracle %v", class, n, s, vj, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v-%d: ComponentsExcluding(%v, %d) = %v, oracle %v", class, n, s, vj, got, want)
						}
					}
					if conn := s.Len() <= 1 || jg.ReachExcluding(s, bitset.Single(s.Min()), vj) == s; conn != (len(want) <= 1) {
						t.Fatalf("%v-%d: ReachExcluding(%v, %v, %d) reached all = %v with %d components", class, n, s, bitset.Single(s.Min()), vj, conn, len(want))
					}
				}
			}
		}
	}
}
