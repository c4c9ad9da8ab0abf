package plancache

import (
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// remapPlan clones a plan tree into another pattern-index/variable
// space: every scan's TP becomes tpMap[TP], pattern sets are rebuilt
// bottom-up, and join and anchor variables are renamed through varMap. Costs and
// cardinalities are copied unchanged — a remapped template keeps the
// estimates of the run that produced it. The result satisfies
// plan.Node.Validate whenever the input does, because tpMap is a
// permutation (disjointness and set/cost arithmetic are preserved).
func remapPlan(n *plan.Node, tpMap []int, varMap map[string]string) *plan.Node {
	m := *n
	if n.Alg == plan.Scan {
		m.TP = tpMap[n.TP]
		m.Set = bitset.Single(m.TP)
		return &m
	}
	m.Children = make([]*plan.Node, len(n.Children))
	var set bitset.TPSet
	for i, ch := range n.Children {
		m.Children[i] = remapPlan(ch, tpMap, varMap)
		set = set.Union(m.Children[i].Set)
	}
	m.Set = set
	if v, ok := varMap[n.JoinVar]; ok {
		m.JoinVar = v
	}
	if v, ok := varMap[n.Anchor]; ok {
		m.Anchor = v
	}
	return &m
}

// remapGroups translates HGR reduction groups between index spaces.
func remapGroups(groups []bitset.TPSet, tpMap []int) []bitset.TPSet {
	if groups == nil {
		return nil
	}
	out := make([]bitset.TPSet, len(groups))
	for i, g := range groups {
		out[i] = querygraph.RemapSet(g, tpMap)
	}
	return out
}
