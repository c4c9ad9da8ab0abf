package baseline

import (
	"context"
	"fmt"
	"sort"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// DPccp is the bottom-up dynamic programming algorithm of Moerkotte &
// Neumann (the paper's reference [13]) that TriAD's optimizer builds
// on: it enumerates exactly the connected-subgraph / connected-
// complement pairs (ccps) of the join graph, bottom-up by subset size,
// producing the optimal *binary* bushy plan with linear amortized cost
// per join operator. It serves as an independent implementation to
// cross-check BinaryDP (the top-down variant) and as the second half
// of the binary-vs-multiway ablation.
func DPccp(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	k, err := opt.NewKit(ctx, in)
	if err != nil {
		return nil, err
	}
	jg := k.JG
	counter := opt.Counter{}
	best := make(map[bitset.TPSet]*plan.Node)

	// Base table: scans.
	for i := 0; i < jg.NumTP; i++ {
		best[bitset.Single(i)] = k.Leaf(i)
		counter.Subqueries++
	}

	// Enumerate every connected subgraph, smallest first, seeded with
	// local plans where the partitioning allows.
	for _, s := range connectedSubgraphs(jg) {
		if s.Len() == 1 {
			continue
		}
		counter.Subqueries++
		var bPlan *plan.Node
		if k.IsLocal(s) {
			bPlan = k.LocalJoin(s, k.JoinVar(s), nil)
			counter.Plans++
		}
		// csg-cmp pairs: every split of s into connected halves that
		// share a join variable. Enumerate halves containing the
		// lowest pattern once.
		lo := s.Min()
		s.ProperSubsets(func(a bitset.TPSet) bool {
			if !a.Has(lo) {
				return true
			}
			if k.Cancelled() {
				return false
			}
			b := s.Diff(a)
			left, lok := best[a]
			right, rok := best[b]
			if !lok || !rok || left == nil || right == nil {
				return true // a side is disconnected: not a ccp
			}
			vj := sharedVar(jg, a, b)
			if vj < 0 {
				return true
			}
			counter.CMDs++
			counter.Plans += 2
			bPlan = k.DistributedJoin(s, jg.Vars[vj], []*plan.Node{left, right}, bPlan)
			return true
		})
		if err := k.Err(); err != nil {
			return nil, err
		}
		best[s] = bPlan
	}
	p := best[jg.All()]
	if p == nil {
		return nil, fmt.Errorf("baseline: DPccp found no plan")
	}
	return &opt.Result{Plan: p, Counter: counter}, nil
}

// connectedSubgraphs lists every connected subquery of the join graph
// in ascending size order. The enumeration grows each subgraph along
// its frontier (Moerkotte & Neumann's EnumerateCsg: each connected set
// is found exactly once via the exclude-smaller-seeds rule).
func connectedSubgraphs(jg *querygraph.JoinGraph) []bitset.TPSet {
	all := jg.All()
	var out []bitset.TPSet
	var grow func(sub, excl bitset.TPSet)
	grow = func(sub, excl bitset.TPSet) {
		out = append(out, sub)
		frontier := jg.AdjOf(all, sub).Diff(excl)
		// Each non-empty subset of the frontier yields a bigger
		// connected set; recurse with the frontier excluded to avoid
		// duplicates.
		frontier.Subsets(func(ext bitset.TPSet) bool {
			grow(sub.Union(ext), excl.Union(frontier))
			return true
		})
	}
	all.Each(func(i int) bool {
		// Seed at i; exclude all smaller seeds.
		grow(bitset.Single(i), bitset.Full(i+1).Intersect(all))
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i] < out[j]
	})
	return out
}
