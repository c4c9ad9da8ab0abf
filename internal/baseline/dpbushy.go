// Package baseline implements the state-of-the-art optimizers the
// paper compares against, following their published descriptions:
//
//   - DPBushy — the top-down dynamic programming algorithm of Huang et
//     al. (ICDE 2014). It enumerates *all* binary divisions of each
//     subquery without checking join-graph connectivity, eliminating
//     Cartesian products only after they are formed, plus the one
//     multi-way join that joins the maximal number of inputs. As
//     proved in Moerkotte & Neumann, such generate-and-test
//     enumeration has exponential amortized complexity per join
//     operator for chain and cycle queries (§III).
//
//   - MSC — the CliqueSquare-style optimizer of Goasdoué et al. (ICDE
//     2015). It builds the flattest plans: at every level it covers
//     the current inputs with a *minimum* number of join cliques
//     (an exact minimum set cover, NP-hard), explores every minimum
//     cover, and recurses. Its plan space contains only flat plans
//     and its running time grows exponentially with query size.
//
//   - BinaryDP — a TriAD-style enumerator of connected *binary* bushy
//     plans (optimal efficiency but binary joins only), used for the
//     multi-way-vs-binary ablation, and DPccp, its bottom-up
//     counterpart, which cross-checks it.
//
// Each is only its search: it plans through an opt.Kit, so all of them
// share the main optimizer's cost model, cardinality estimator,
// local-query detection, scan leaves, anchored local joins, choice of
// broadcast or repartition join and cancellation, exactly as in the
// paper's experimental setup. Optimizers is the one table naming the
// eight optimizers the CLI and the experiments run, these included.
package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
)

// DPBushy runs the Huang et al. top-down DP on the input.
func DPBushy(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	k, err := opt.NewKit(ctx, in)
	if err != nil {
		return nil, err
	}
	d := &dpBushy{Kit: k, memo: make(map[bitset.TPSet]*plan.Node)}
	p := d.best(k.JG.All())
	if err := k.Err(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("baseline: DP-Bushy found no Cartesian-product-free plan")
	}
	return &opt.Result{Plan: p, Counter: d.counter}, nil
}

type dpBushy struct {
	*opt.Kit
	memo    map[bitset.TPSet]*plan.Node
	counter opt.Counter
}

// best returns the cheapest Cartesian-product-free plan for s, or nil
// when none exists (s disconnected). Unlike TD-CMD it recurses into
// every subset — connectivity is discovered only when plans fail to
// form, which is exactly the inefficiency the paper criticizes.
func (d *dpBushy) best(s bitset.TPSet) *plan.Node {
	if p, ok := d.memo[s]; ok {
		return p
	}
	if d.Cancelled() {
		return nil
	}
	d.counter.Subqueries++
	var result *plan.Node
	defer func() {
		if d.Err() == nil {
			d.memo[s] = result
		}
	}()
	if s.Len() == 1 {
		result = d.Leaf(s.Min())
		return result
	}
	jg := d.JG
	if d.IsLocal(s) {
		result = d.LocalJoin(s, d.JoinVar(s), nil)
		d.counter.Plans++
	}
	// All binary divisions: every proper subset containing the lowest
	// pattern (to visit each unordered pair once).
	lo := s.Min()
	s.ProperSubsets(func(a bitset.TPSet) bool {
		if !a.Has(lo) {
			return true
		}
		if d.Cancelled() {
			return false
		}
		b := s.Diff(a)
		left := d.best(a)
		right := d.best(b)
		if left == nil || right == nil {
			return true // a side is a Cartesian product all the way down
		}
		// The join itself must not be a cross product: the sides must
		// share a join variable.
		vj := sharedVar(jg, a, b)
		if vj < 0 {
			return true
		}
		d.counter.CMDs++
		d.counter.Plans += 2
		result = d.DistributedJoin(s, jg.Vars[vj], []*plan.Node{left, right}, result)
		return true
	})
	// The single maximal multi-way join: the variable with the most
	// neighbors in s, parts grown from each neighbor.
	if vj, parts := maxMultiwayDivision(jg, s); len(parts) > 2 {
		children := make([]*plan.Node, 0, len(parts))
		ok := true
		for _, part := range parts {
			ch := d.best(part)
			if ch == nil {
				ok = false
				break
			}
			children = append(children, ch)
		}
		if ok {
			d.counter.CMDs++
			d.counter.Plans += 2
			result = d.DistributedJoin(s, jg.Vars[vj], children, result)
		}
	}
	return result
}
