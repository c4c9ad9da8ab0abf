package opt

import (
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
)

// runHGR implements HGR-TD-CMD (§IV-B): solve the join graph reduction
// problem — cover the query with local queries of minimal total
// cardinality (Definition 4; NP-hard by Theorem 4) — with the greedy
// weighted-set-cover heuristic, collapse each chosen group into one
// vertex, and run unpruned TD-CMD over the reduced join graph.
func runHGR(k *Kit) (*Result, error) {
	groups := reduceJoinGraph(k)
	// Build the reduced join graph: one unit per group, exposing the
	// union of the member patterns' variables.
	varSets := make([][]string, len(groups))
	for i, g := range groups {
		seen := map[string]bool{}
		g.Each(func(tp int) bool {
			for _, v := range k.In.Query.Patterns[tp].Vars() {
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
	sp := &space{Kit: k, jg: jg, groups: groups}
	p, err := sp.run()
	if err != nil {
		return nil, err
	}
	return &Result{Plan: p, Counter: sp.counter, Used: HGRTDCMD, Groups: groups}, nil
}

// reduceJoinGraph solves the JGR problem greedily: repeatedly pick the
// candidate local query SQ minimizing card(SQ)/|SQ ∩ uncovered| until
// the query is covered (the classic ln-n-approximate weighted set
// cover). Candidates are the connected components of MLQ ∩ uncovered
// for every maximal local query MLQ; overlapping picks are made
// disjoint by intersecting with the uncovered set, so the returned
// groups partition the query. Every group is a local query (a
// connected subset of an MLQ). With no partitioning method, every
// pattern forms its own group and the reduction is the identity.
func reduceJoinGraph(k *Kit) []bitset.TPSet {
	jg := k.JG
	all := jg.All()
	var mlqs []bitset.TPSet
	if k.checker != nil {
		mlqs = k.checker.MaximalLocalQueries()
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
				ratio := k.In.Est.Cardinality(piece) / float64(piece.Len())
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
