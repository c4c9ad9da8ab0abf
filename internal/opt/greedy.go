package opt

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/partition"
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
func runGreedy(ctx context.Context, in *Input) (*Result, error) {
	jg := in.Views.Join
	all := jg.All()
	if !jg.Connected(all) {
		return nil, errDisconnected
	}
	if err := obs.Canceled(ctx, "optimize"); err != nil {
		return nil, err
	}
	var checker *partition.LocalChecker
	if in.Method != nil {
		checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	isLocal := func(s bitset.TPSet) bool {
		if checker == nil {
			return s.Len() <= 1
		}
		return checker.IsLocal(s)
	}

	n := jg.NumTP
	leaves := make([]*plan.Node, n)
	cards := make([]float64, n)
	for u := 0; u < n; u++ {
		cards[u] = in.Est.Cardinality(bitset.Single(u))
		leaves[u] = plan.NewScan(u, cards[u], in.Params)
	}
	var counter Counter
	counter.Subqueries = int64(n)

	if isLocal(all) {
		// The whole query runs on one node: a k-way local join of the
		// leaves beats any chain of distributed joins.
		counter.Plans = 1
		counter.Subqueries++
		return &Result{Plan: localJoinOf(jg, checker, all, leaves, in.Est.Cardinality(all), in.Params),
			Counter: counter, Used: Greedy}, nil
	}

	seed := 0
	for u := 1; u < n; u++ {
		if cards[u] < cards[seed] {
			seed = u
		}
	}
	cur := bitset.Single(seed)
	curPlan := leaves[seed]
	for cur != all {
		next, joinVar := -1, -1
		all.Diff(cur).Each(func(u int) bool {
			v := joinVarWith(jg, cur, u)
			if v < 0 {
				return true // not connected to the chain yet
			}
			if next < 0 || cards[u] < cards[next] {
				next, joinVar = u, v
			}
			return true
		})
		if next < 0 {
			// Unreachable after the Connected check above; belt and
			// braces against a malformed join graph.
			return nil, fmt.Errorf("opt: greedy planner stuck with %d patterns unjoined", all.Diff(cur).Len())
		}
		cur = cur.Union(bitset.Single(next))
		out := in.Est.Cardinality(cur)
		children := []*plan.Node{curPlan, leaves[next]}
		_, c := plan.JoinCost(plan.RepartitionJoin, children, out, in.Params)
		best := plan.RepartitionJoin
		if _, bc := plan.JoinCost(plan.BroadcastJoin, children, out, in.Params); bc < c {
			best, c = plan.BroadcastJoin, bc
		}
		counter.Plans += 2
		if isLocal(cur) {
			counter.Plans++
			if _, lc := plan.JoinCost(plan.LocalJoin, children, out, in.Params); lc < c {
				best, c = plan.LocalJoin, lc
			}
		}
		curPlan = plan.NewJoin(best, jg.Vars[joinVar], children, out, in.Params)
		if best == plan.LocalJoin {
			curPlan.Anchor = checker.Anchor(cur)
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

// localJoinOf builds the k-way local join of every unit in s.
func localJoinOf(jg *querygraph.JoinGraph, checker *partition.LocalChecker, s bitset.TPSet, leaves []*plan.Node, card float64, params cost.Params) *plan.Node {
	if s.Len() == 1 {
		return leaves[s.Min()]
	}
	children := make([]*plan.Node, 0, s.Len())
	s.Each(func(u int) bool {
		children = append(children, leaves[u])
		return true
	})
	name := ""
	if joinVars := jg.JoinVarsOf(s); len(joinVars) > 0 {
		name = jg.Vars[joinVars[0]]
	}
	j := plan.NewJoin(plan.LocalJoin, name, children, card, params)
	j.Anchor = checker.Anchor(s)
	return j
}
