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
//     multi-way-vs-binary ablation.
//
// All three use the same cost model, cardinality estimator and
// local-query detection as the main optimizer, exactly as in the
// paper's experimental setup.
package baseline

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
)

const cancelCheckInterval = 4096

// DPBushy runs the Huang et al. top-down DP on the input.
func DPBushy(ctx context.Context, in *opt.Input) (*opt.Result, error) {
	d, err := newDPBushy(ctx, in)
	if err != nil {
		return nil, err
	}
	all := in.Views.Join.All()
	p := d.best(all)
	if d.err != nil {
		return nil, d.err
	}
	if p == nil {
		return nil, fmt.Errorf("baseline: DP-Bushy found no Cartesian-product-free plan")
	}
	return &opt.Result{Plan: p, Counter: d.counter}, nil
}

type dpBushy struct {
	ctx     context.Context
	in      *opt.Input
	checker *partition.LocalChecker
	memo    map[bitset.TPSet]*plan.Node
	counter opt.Counter
	steps   int
	err     error
}

func newDPBushy(ctx context.Context, in *opt.Input) (*dpBushy, error) {
	if err := opt.NormalizeInput(in); err != nil {
		return nil, err
	}
	d := &dpBushy{ctx: ctx, in: in, memo: make(map[bitset.TPSet]*plan.Node)}
	if in.Method != nil {
		d.checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	return d, nil
}

func (d *dpBushy) cancelled() bool {
	if d.err != nil {
		return true
	}
	d.steps++
	if d.steps%cancelCheckInterval == 0 {
		if err := d.ctx.Err(); err != nil {
			d.err = err
			return true
		}
	}
	return false
}

// best returns the cheapest Cartesian-product-free plan for s, or nil
// when none exists (s disconnected). Unlike TD-CMD it recurses into
// every subset — connectivity is discovered only when plans fail to
// form, which is exactly the inefficiency the paper criticizes.
func (d *dpBushy) best(s bitset.TPSet) *plan.Node {
	if p, ok := d.memo[s]; ok {
		return p
	}
	if d.cancelled() {
		return nil
	}
	d.counter.Subqueries++
	var result *plan.Node
	defer func() {
		if d.err == nil {
			d.memo[s] = result
		}
	}()
	if s.Len() == 1 {
		result = plan.NewScan(s.Min(), d.in.Est.Cardinality(s), d.in.Params)
		return result
	}
	jg := d.in.Views.Join
	if d.checker != nil && d.checker.IsLocal(s) {
		result = localPlan(d.in, s, d.checker)
		d.counter.Plans++
	}
	// All binary divisions: every proper subset containing the lowest
	// pattern (to visit each unordered pair once).
	lo := s.Min()
	s.ProperSubsets(func(a bitset.TPSet) bool {
		if !a.Has(lo) {
			return true
		}
		if d.cancelled() {
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
		result = d.considerJoin(result, jg.Vars[vj], []*plan.Node{left, right}, s)
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
			result = d.considerJoin(result, jg.Vars[vj], children, s)
		}
	}
	return result
}

func (d *dpBushy) considerJoin(best *plan.Node, vj string, children []*plan.Node, s bitset.TPSet) *plan.Node {
	out := d.in.Est.Cardinality(s)
	for _, alg := range []plan.Algorithm{plan.BroadcastJoin, plan.RepartitionJoin} {
		d.counter.Plans++
		cand := plan.NewJoin(alg, vj, children, out, d.in.Params)
		if best == nil || cand.Cost < best.Cost {
			best = cand
		}
	}
	return best
}
