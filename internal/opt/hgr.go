package opt

import (
	"context"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// runHGR implements HGR-TD-CMD (§IV-B): solve the join graph reduction
// problem — cover the query with local queries of minimal total
// cardinality (Definition 4; NP-hard by Theorem 4) — with the greedy
// weighted-set-cover heuristic, collapse each chosen group into one
// vertex, and run unpruned TD-CMD over the reduced join graph.
func runHGR(ctx context.Context, in *Input) (*Result, error) {
	groups := ReduceJoinGraph(in)
	// Build the reduced join graph: one unit per group, exposing the
	// union of the member patterns' variables.
	varSets := make([][]string, len(groups))
	for i, g := range groups {
		seen := map[string]bool{}
		g.Each(func(tp int) bool {
			for _, v := range in.Query.Patterns[tp].Vars() {
				if !seen[v] {
					seen[v] = true
					varSets[i] = append(varSets[i], v)
				}
			}
			return true
		})
	}
	jg, err := querygraph.NewJoinGraphFromVarSets(varSets)
	if err != nil {
		return nil, err
	}
	var checker *partition.LocalChecker
	if in.Method != nil {
		checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	origSet := func(units bitset.TPSet) bitset.TPSet {
		var out bitset.TPSet
		units.Each(func(u int) bool {
			out = out.Union(groups[u])
			return true
		})
		return out
	}
	origJG := in.Views.Join
	sp := &space{
		ctx: ctx,
		jg:  jg,
		leaf: func(u int) *plan.Node {
			return groupPlan(in, origJG, groups[u], checker)
		},
		card: func(units bitset.TPSet) float64 {
			return in.Est.Cardinality(origSet(units))
		},
		isLocal: func(units bitset.TPSet) bool {
			if checker == nil {
				return units.Len() <= 1
			}
			return checker.IsLocal(origSet(units))
		},
		anchor: func(units bitset.TPSet) string {
			return checker.Anchor(origSet(units))
		},
		params: in.Params,
		inst:   in.Inst,
		gauge:  in.Gauge,
		faults: in.Faults,
	}
	p, err := sp.run()
	if err != nil {
		return nil, err
	}
	return &Result{Plan: p, Counter: sp.counter, Used: HGRTDCMD, Groups: groups}, nil
}

// groupPlan builds the leaf plan of one reduction group: a scan for a
// single pattern, a k-way local join of scans otherwise (every group
// is a local query by construction).
func groupPlan(in *Input, jg *querygraph.JoinGraph, group bitset.TPSet, checker *partition.LocalChecker) *plan.Node {
	if group.Len() == 1 {
		tp := group.Min()
		return plan.NewScan(tp, in.Est.Cardinality(group), in.Params)
	}
	children := make([]*plan.Node, 0, group.Len())
	group.Each(func(tp int) bool {
		children = append(children, plan.NewScan(tp, in.Est.Cardinality(bitset.Single(tp)), in.Params))
		return true
	})
	name := ""
	if vars := jg.JoinVarsOf(group); len(vars) > 0 {
		name = jg.Vars[vars[0]]
	}
	j := plan.NewJoin(plan.LocalJoin, name, children, in.Est.Cardinality(group), in.Params)
	j.Anchor = checker.Anchor(group)
	return j
}

// ReduceJoinGraph solves the JGR problem greedily: repeatedly pick the
// candidate local query SQ minimizing card(SQ)/|SQ ∩ uncovered| until
// the query is covered (the classic ln-n-approximate weighted set
// cover). Candidates are the connected components of MLQ ∩ uncovered
// for every maximal local query MLQ; overlapping picks are made
// disjoint by intersecting with the uncovered set, so the returned
// groups partition the query. Every group is a local query (a
// connected subset of an MLQ). With no partitioning method, every
// pattern forms its own group and the reduction is the identity.
func ReduceJoinGraph(in *Input) []bitset.TPSet {
	jg := in.Views.Join
	all := jg.All()
	var mlqs []bitset.TPSet
	if in.Method != nil {
		mlqs = partition.NewLocalChecker(in.Method, in.Views.Query).MaximalLocalQueries()
	}
	var groups []bitset.TPSet
	uncovered := all
	for !uncovered.IsEmpty() {
		best := bitset.TPSet(0)
		bestRatio := 0.0
		for _, mlq := range mlqs {
			avail := mlq.Intersect(uncovered)
			if avail.IsEmpty() {
				continue
			}
			for _, piece := range jg.Components(avail) {
				ratio := in.Est.Cardinality(piece) / float64(piece.Len())
				if best.IsEmpty() || ratio < bestRatio {
					best, bestRatio = piece, ratio
				}
			}
		}
		if best.IsEmpty() {
			// No local query covers the remainder: emit singletons.
			uncovered.Each(func(tp int) bool {
				groups = append(groups, bitset.Single(tp))
				return true
			})
			break
		}
		groups = append(groups, best)
		uncovered = uncovered.Diff(best)
	}
	return groups
}
