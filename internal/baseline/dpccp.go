package baseline

import (
	"context"
	"fmt"
	"sort"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
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
	if err := opt.NormalizeInput(in); err != nil {
		return nil, err
	}
	jg := in.Views.Join
	all := jg.All()
	if !jg.Connected(all) {
		return nil, fmt.Errorf("baseline: DPccp requires a connected query")
	}
	var checker *partition.LocalChecker
	if in.Method != nil {
		checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	counter := opt.Counter{}
	best := make(map[bitset.TPSet]*plan.Node)

	// Base table: scans.
	for i := 0; i < jg.NumTP; i++ {
		best[bitset.Single(i)] = plan.NewScan(i, in.Est.Cardinality(bitset.Single(i)), in.Params)
		counter.Subqueries++
	}

	// Enumerate every connected subgraph, smallest first, seeded with
	// local plans where the partitioning allows.
	subs := connectedSubgraphs(jg)
	steps := 0
	for _, s := range subs {
		if s.Len() == 1 {
			continue
		}
		steps++
		if steps%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		counter.Subqueries++
		var bPlan *plan.Node
		if checker != nil && checker.IsLocal(s) {
			bPlan = localPlan(in, s, checker)
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
			out := in.Est.Cardinality(s)
			for _, alg := range []plan.Algorithm{plan.BroadcastJoin, plan.RepartitionJoin} {
				counter.Plans++
				cand := plan.NewJoin(alg, jg.Vars[vj], []*plan.Node{left, right}, out, in.Params)
				if bPlan == nil || cand.Cost < bPlan.Cost {
					bPlan = cand
				}
			}
			return true
		})
		best[s] = bPlan
	}
	p := best[all]
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
