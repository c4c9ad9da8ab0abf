package baseline

import (
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// localPlan builds the k-way local join of every pattern in the local
// subquery s (or a plain scan for singletons).
func localPlan(in *opt.Input, s bitset.TPSet, checker *partition.LocalChecker) *plan.Node {
	if s.Len() == 1 {
		return plan.NewScan(s.Min(), in.Est.Cardinality(s), in.Params)
	}
	jg := in.Views.Join
	children := make([]*plan.Node, 0, s.Len())
	s.Each(func(tp int) bool {
		children = append(children, plan.NewScan(tp, in.Est.Cardinality(bitset.Single(tp)), in.Params))
		return true
	})
	name := ""
	if vars := jg.JoinVarsOf(s); len(vars) > 0 {
		name = jg.Vars[vars[0]]
	}
	j := plan.NewJoin(plan.LocalJoin, name, children, in.Est.Cardinality(s), in.Params)
	j.Anchor = checker.Anchor(s)
	return j
}

// sharedVar returns a join variable with neighbors on both sides, or -1.
func sharedVar(jg *querygraph.JoinGraph, a, b bitset.TPSet) int {
	for j := range jg.Vars {
		if jg.Ntp[j].Overlaps(a) && jg.Ntp[j].Overlaps(b) {
			return j
		}
	}
	return -1
}

// maxMultiwayDivision returns the k-way division with the largest k
// that DP-Bushy considers: the join variable with the most neighbors
// in s, with one part grown around each neighbor. Patterns that are
// not neighbors join the part of the nearest neighbor (breadth-first
// over the join graph with the variable removed). Returns k ≤ 2 parts
// when no variable yields a wider join.
func maxMultiwayDivision(jg *querygraph.JoinGraph, s bitset.TPSet) (int, []bitset.TPSet) {
	bestVar, bestK := -1, 2
	for j := range jg.Vars {
		if k := jg.Ntp[j].Intersect(s).Len(); k > bestK {
			bestVar, bestK = j, k
		}
	}
	if bestVar < 0 {
		return -1, nil
	}
	// Each component of s − v_j attaches to the part of one of its
	// neighbors of v_j (it contains at least one, since s is connected).
	neighbors := jg.Ntp[bestVar].Intersect(s)
	parts := make([]bitset.TPSet, 0, bestK)
	for _, comp := range jg.ComponentsExcluding(s, bestVar) {
		mine := comp.Intersect(neighbors)
		if mine.Len() <= 1 {
			parts = append(parts, comp)
			continue
		}
		// A component with several neighbors splits around them: each
		// neighbor seeds a part; remaining patterns go to the first
		// part they touch.
		sub := make([]bitset.TPSet, 0, mine.Len())
		mine.Each(func(tp int) bool {
			sub = append(sub, bitset.Single(tp))
			return true
		})
		rest := comp.Diff(mine)
		for !rest.IsEmpty() {
			progressed := false
			for i := range sub {
				grow := jg.AdjOf(comp, sub[i]).Intersect(rest)
				if !grow.IsEmpty() {
					sub[i] = sub[i].Union(grow)
					rest = rest.Diff(grow)
					progressed = true
				}
			}
			if !progressed {
				// Unreachable without v_j; give up on splitting.
				sub[0] = sub[0].Union(rest)
				rest = 0
			}
		}
		parts = append(parts, sub...)
	}
	return bestVar, parts
}
