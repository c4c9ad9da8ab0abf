package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
)

// BinaryDP is a TriAD-style optimizer: a memoized top-down dynamic
// program over *connected binary* divisions only. Like TriAD's
// bottom-up DP it enumerates each connected complement pair once
// (linear amortized complexity per join operator), but it cannot form
// multi-way joins — the limitation the paper's §IV discusses. It is
// used for the multi-way-versus-binary ablation.
func BinaryDP(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	k, err := opt.NewKit(ctx, in)
	if err != nil {
		return nil, err
	}
	b := &binaryDP{Kit: k, memo: make(map[bitset.TPSet]*plan.Node)}
	p := b.best(k.JG.All())
	if err := k.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("baseline: BinaryDP found no plan")
	}
	return &opt.Result{Plan: p, Counter: b.counter}, nil
}

type binaryDP struct {
	*opt.Kit
	memo    map[bitset.TPSet]*plan.Node
	counter opt.Counter
}

func (b *binaryDP) best(s bitset.TPSet) *plan.Node {
	if p, ok := b.memo[s]; ok {
		return p
	}
	if b.Cancelled() {
		return nil
	}
	b.counter.Subqueries++
	var result *plan.Node
	defer func() {
		if b.Err() == nil {
			b.memo[s] = result
		}
	}()
	if s.Len() == 1 {
		result = b.Leaf(s.Min())
		return result
	}
	jg := b.JG
	if b.IsLocal(s) {
		result = b.LocalJoin(s, b.JoinVar(s), nil)
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
			if b.Cancelled() {
				return false
			}
			left := b.best(a)
			right := b.best(rest)
			if left == nil || right == nil {
				return b.Err() == nil
			}
			b.counter.CMDs++
			b.counter.Plans += 2
			result = b.DistributedJoin(s, jg.Vars[vj], []*plan.Node{left, right}, result)
			return true
		})
		if b.Err() != nil {
			return nil
		}
	}
	return result
}
