package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
)

// BinaryDP is a TriAD-style optimizer: a memoized top-down dynamic
// program over *connected binary* divisions only. Like TriAD's
// bottom-up DP it enumerates each connected complement pair once
// (linear amortized complexity per join operator), but it cannot form
// multi-way joins — the limitation the paper's §IV discusses. It is
// used for the multi-way-versus-binary ablation.
func BinaryDP(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	if err := opt.NormalizeInput(in); err != nil {
		return nil, err
	}
	jg := in.Views.Join
	if !jg.Connected(jg.All()) {
		return nil, fmt.Errorf("baseline: BinaryDP requires a connected query")
	}
	b := &binaryDP{ctx: ctx, in: in, memo: make(map[bitset.TPSet]*plan.Node)}
	if in.Method != nil {
		b.checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	p := b.best(jg.All())
	if b.err != nil {
		return nil, b.err
	}
	if p == nil {
		return nil, fmt.Errorf("baseline: BinaryDP found no plan")
	}
	return &opt.Result{Plan: p, Counter: b.counter}, nil
}

type binaryDP struct {
	ctx     context.Context
	in      *opt.Input
	checker *partition.LocalChecker
	memo    map[bitset.TPSet]*plan.Node
	counter opt.Counter
	steps   int
	err     error
}

func (b *binaryDP) cancelled() bool {
	if b.err != nil {
		return true
	}
	b.steps++
	if b.steps%cancelCheckInterval == 0 {
		if err := b.ctx.Err(); err != nil {
			b.err = err
			return true
		}
	}
	return false
}

func (b *binaryDP) best(s bitset.TPSet) *plan.Node {
	if p, ok := b.memo[s]; ok {
		return p
	}
	if b.cancelled() {
		return nil
	}
	b.counter.Subqueries++
	var result *plan.Node
	defer func() {
		if b.err == nil {
			b.memo[s] = result
		}
	}()
	if s.Len() == 1 {
		result = plan.NewScan(s.Min(), b.in.Est.Cardinality(s), b.in.Params)
		return result
	}
	jg := b.in.Views.Join
	if b.checker != nil && b.checker.IsLocal(s) {
		result = localPlan(b.in, s, b.checker)
		b.counter.Plans++
	}
	// Every connected binary division, found by running Algorithm 2 on
	// each join variable and deduplicating the (a, b) pairs (the same
	// split can be a cbd on several variables; the join itself applies
	// all shared equalities).
	seen := map[bitset.TPSet]bool{}
	for _, vj := range jg.JoinVarsOf(s) {
		opt.ConnBinDivision(jg, s, vj, func(a, rest bitset.TPSet) bool {
			if seen[a] {
				return true
			}
			seen[a] = true
			if b.cancelled() {
				return false
			}
			left := b.best(a)
			right := b.best(rest)
			if left == nil || right == nil {
				return b.err == nil
			}
			b.counter.CMDs++
			out := b.in.Est.Cardinality(s)
			for _, alg := range []plan.Algorithm{plan.BroadcastJoin, plan.RepartitionJoin} {
				b.counter.Plans++
				cand := plan.NewJoin(alg, jg.Vars[vj], []*plan.Node{left, right}, out, b.in.Params)
				if result == nil || cand.Cost < result.Cost {
					result = cand
				}
			}
			return true
		})
		if b.err != nil {
			return nil
		}
	}
	return result
}
