package opt

import (
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// runGreedy is the Greedy algorithm: a left-deep chain built by the
// classic smallest-first heuristic. Seed with the lowest-cardinality
// pattern, then repeatedly absorb the connected pattern with the
// lowest cardinality, picking the cheapest join algorithm for each
// step from the cost model. Ties break on pattern index, so the plan
// is deterministic.
//
// It deliberately has none of the enumerator's machinery — no memo, no
// budget or fault sites — because its job is to be the rung of the
// degradation ladder that cannot fail the way the rungs above it
// failed: O(n²) time, O(n) space.
func runGreedy(k *Kit) (*Result, error) {
	jg := k.JG
	all := jg.All()
	n := jg.NumTP
	var counter Counter
	counter.Subqueries = int64(n)

	if k.IsLocal(all) {
		// The whole query runs on one node: a k-way local join of the
		// leaves beats any chain of distributed joins.
		counter.Plans = 1
		counter.Subqueries++
		return &Result{Plan: k.LocalJoin(all, k.JoinVar(all), nil), Counter: counter, Used: Greedy}, nil
	}

	seed := 0
	for u := 1; u < n; u++ {
		if k.Leaf(u).Card < k.Leaf(seed).Card {
			seed = u
		}
	}
	cur := bitset.Single(seed)
	curPlan := k.Leaf(seed)
	for cur != all {
		next, joinVar := -1, -1
		all.Diff(cur).Each(func(u int) bool {
			v := joinVarWith(jg, cur, u)
			if v < 0 {
				return true // not connected to the chain yet
			}
			if next < 0 || k.Leaf(u).Card < k.Leaf(next).Card {
				next, joinVar = u, v
			}
			return true
		})
		if next < 0 {
			// Unreachable after the Kit's connectivity check; belt and
			// braces against a malformed join graph.
			return nil, fmt.Errorf("opt: greedy planner stuck with %d patterns unjoined", all.Diff(cur).Len())
		}
		cur = cur.Union(bitset.Single(next))
		out := k.In.Est.Cardinality(cur)
		children := []*plan.Node{curPlan, k.Leaf(next)}
		_, c := plan.JoinCost(plan.RepartitionJoin, children, out, k.In.Params)
		best := plan.RepartitionJoin
		if _, bc := plan.JoinCost(plan.BroadcastJoin, children, out, k.In.Params); bc < c {
			best, c = plan.BroadcastJoin, bc
		}
		counter.Plans += 2
		if k.IsLocal(cur) {
			counter.Plans++
			if _, lc := plan.JoinCost(plan.LocalJoin, children, out, k.In.Params); lc < c {
				best = plan.LocalJoin
			}
		}
		if best == plan.LocalJoin {
			curPlan = k.LocalJoin(cur, jg.Vars[joinVar], children)
		} else {
			curPlan = plan.NewJoin(best, jg.Vars[joinVar], children, out, k.In.Params)
		}
		counter.CMDs++
		counter.Subqueries++
	}
	return &Result{Plan: curPlan, Counter: counter, Used: Greedy}, nil
}

// joinVarWith returns the lowest-index variable pattern u shares with
// the set cur, or -1 when they are disconnected.
func joinVarWith(jg *querygraph.JoinGraph, cur bitset.TPSet, u int) int {
	for _, v := range jg.TPVars[u] {
		if !jg.Ntp[v].Intersect(cur).IsEmpty() {
			return v
		}
	}
	return -1
}
