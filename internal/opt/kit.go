package opt

import (
	"context"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// Kit is what every optimizer plans through: the normalized input, the
// query's join graph, the local-query test, one scan leaf per pattern,
// the local and distributed join nodes and the run's cancellation. The
// top-down enumerator (TD-CMD, TD-CMDP, HGR-TD-CMD, TD-Auto), Greedy and
// the baselines of internal/baseline keep only their own search, so all
// of them cost, anchor and cancel alike. A Kit serves one run.
type Kit struct {
	// In is the normalized input.
	In *Input
	// JG is the query's join graph, In.Views.Join.
	JG *querygraph.JoinGraph

	ctx context.Context
	// checker tests locality; nil without a partitioning method, when
	// only single patterns are local.
	checker *partition.LocalChecker
	scans   []*plan.Node

	// steps counts Cancelled calls, rationing context polls; err
	// records the first failure, after which every step stops.
	steps int
	err   error
}

// cancelCheckInterval is how many steps pass between two polls of the
// run's context.
const cancelCheckInterval = 4096

// NewKit normalizes in (Views from Query, cost.Default parameters) and
// prepares one run under ctx. It fails on a disconnected query, for
// which no Cartesian-product-free plan exists (an error matching
// querygraph.ErrUnsupported), and on an expired ctx (a *obs.PhaseError
// for phase "optimize"), before any search starts.
func NewKit(ctx context.Context, in *Input) (*Kit, error) {
	if err := normalize(in); err != nil {
		return nil, err
	}
	jg := in.Views.Join
	if !jg.Connected(jg.All()) {
		return nil, errDisconnected
	}
	if err := obs.Canceled(ctx, "optimize"); err != nil {
		return nil, err
	}
	k := &Kit{In: in, JG: jg, ctx: ctx, scans: make([]*plan.Node, jg.NumTP)}
	if in.Method != nil {
		k.checker = partition.NewLocalChecker(in.Method, in.Views.Query)
	}
	for tp := range k.scans {
		k.scans[tp] = plan.NewScan(tp, in.Est.Cardinality(bitset.Single(tp)), in.Params)
	}
	return k, nil
}

// Leaf returns the scan of pattern tp.
func (k *Kit) Leaf(tp int) *plan.Node { return k.scans[tp] }

// IsLocal reports whether the subquery s runs without communication
// under the input's partitioning method.
func (k *Kit) IsLocal(s bitset.TPSet) bool {
	if k.checker == nil {
		return s.Len() <= 1
	}
	return k.checker.IsLocal(s)
}

// JoinVar names the lowest-indexed join variable of s in the query's
// join graph, "" when s has none.
func (k *Kit) JoinVar(s bitset.TPSet) string { return joinVarName(k.JG, s) }

func joinVarName(jg *querygraph.JoinGraph, s bitset.TPSet) string {
	if vars := jg.JoinVarsOf(s); len(vars) > 0 {
		return jg.Vars[vars[0]]
	}
	return ""
}

// LocalJoin builds the one-step local join of the local subquery s on
// joinVar, anchored at s's anchor variable (LocalChecker.Anchor). Its
// inputs are children, which must cover s, or s's scans in pattern
// order when children is nil; a single input is returned as it is.
func (k *Kit) LocalJoin(s bitset.TPSet, joinVar string, children []*plan.Node) *plan.Node {
	if children == nil {
		children = make([]*plan.Node, 0, s.Len())
		s.Each(func(tp int) bool {
			children = append(children, k.scans[tp])
			return true
		})
	}
	if len(children) == 1 {
		return children[0]
	}
	j := plan.NewJoin(plan.LocalJoin, joinVar, children, k.In.Est.Cardinality(s), k.In.Params)
	j.Anchor = k.checker.Anchor(s)
	return j
}

// DistributedJoin returns the cheaper of the broadcast and the
// repartition join of children, a division of s, on joinVar — or best
// when neither is cheaper than it. Broadcast wins a tie with
// repartition, best a tie with either. Only the returned node is built.
func (k *Kit) DistributedJoin(s bitset.TPSet, joinVar string, children []*plan.Node, best *plan.Node) *plan.Node {
	out := k.In.Est.Cardinality(s)
	alg := plan.BroadcastJoin
	_, c := plan.JoinCost(alg, children, out, k.In.Params)
	if _, rc := plan.JoinCost(plan.RepartitionJoin, children, out, k.In.Params); rc < c {
		alg, c = plan.RepartitionJoin, rc
	}
	if best != nil && !(c < best.Cost) {
		return best
	}
	return plan.NewJoin(alg, joinVar, children, out, k.In.Params)
}

// Cancelled reports whether the run has failed and, every
// cancelCheckInterval calls, polls the context: an expired one fails
// the run with a *obs.PhaseError for phase "optimize".
func (k *Kit) Cancelled() bool {
	if k.err != nil {
		return true
	}
	k.steps++
	return k.steps%cancelCheckInterval == 0 && k.poll()
}

// poll is Cancelled's slow path, kept apart so that Cancelled inlines
// into the enumerator's loops.
func (k *Kit) poll() bool {
	if err := obs.Canceled(k.ctx, "optimize"); err != nil {
		k.fail(err)
		return true
	}
	return false
}

// fail records the run's first error; Cancelled reports true from then
// on.
func (k *Kit) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// Err returns the error that stopped the run, nil while it goes on.
func (k *Kit) Err() error { return k.err }
