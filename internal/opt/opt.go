package opt

import (
	"context"
	"fmt"
	"time"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// errDisconnected is the failure of TD-CMD (and every algorithm built
// on it) and of Greedy on a query whose join graph is disconnected.
var errDisconnected = fmt.Errorf("opt: query is disconnected; a Cartesian-product-free plan does not exist: %w", querygraph.ErrUnsupported)

// Algorithm selects one of the paper's optimization algorithms.
type Algorithm uint8

const (
	// TDCMD is the unpruned top-down enumeration (Algorithm 1), which
	// always finds the minimum-cost Cartesian-product-free k-ary plan.
	TDCMD Algorithm = iota
	// TDCMDP is TD-CMD with the three pruning rules of §IV-A.
	TDCMDP
	// HGRTDCMD reduces the join graph by collapsing local groups
	// (§IV-B), then runs TD-CMD on the reduced graph.
	HGRTDCMD
	// TDAuto picks one of the above via the decision tree of §IV-C.
	TDAuto
	// Greedy is the left-deep greedy baseline: seed with the smallest
	// pattern, repeatedly join the smallest connected one. It is not
	// from the paper — it exists as the last rung of the serving path's
	// degradation ladder, because it needs no enumeration, no memo and
	// (almost) no memory, so it cannot trip a budget or time out.
	Greedy
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case TDCMD:
		return "TD-CMD"
	case TDCMDP:
		return "TD-CMDP"
	case HGRTDCMD:
		return "HGR-TD-CMD"
	case Greedy:
		return "Greedy-LD"
	default:
		return "TD-Auto"
	}
}

// Decision-tree thresholds of §IV-C ("in practice, based on our
// experiments, we set θ_d = 5, θ_n = 30 and λ_n = 14").
const (
	ThetaD  = 5
	ThetaN  = 30
	LambdaN = 14
)

// Input bundles everything one optimization run needs.
type Input struct {
	// Query is the parsed query.
	Query *sparql.Query
	// Views are the query's graph views (built from Query if nil).
	Views *querygraph.Views
	// Est estimates subquery cardinalities.
	Est *stats.Estimator
	// Params is the cost model (cost.Default if zero Nodes).
	Params cost.Params
	// Method is the data partitioning method, used to detect local
	// queries. When nil, no subquery is considered local except single
	// patterns (pure distributed execution).
	Method partition.Method
	// Inst, when non-nil, receives run metrics (per-algorithm timing,
	// memo hit rate, pruning tallies), accumulated across runs; nil
	// disables recording entirely.
	Inst *Instruments
	// Gauge, when non-nil, charges the enumerator's memo growth against
	// the query's memory budget; a trip fails the run with a typed
	// *resilience.BudgetError. Nil disables accounting.
	Gauge *resilience.Gauge
	// Faults, when non-nil, arms deterministic fault injection inside
	// the enumerator (chaos tests only; nil in production).
	Faults *faultinject.Set
}

// Result is the outcome of an optimization run.
type Result struct {
	// Plan is the chosen physical plan.
	Plan *plan.Node
	// Counter holds search-space instrumentation.
	Counter Counter
	// Used reports which concrete algorithm ran (interesting for TDAuto).
	Used Algorithm
	// Groups holds the join-graph-reduction groups when HGR ran
	// (nil otherwise).
	Groups []bitset.TPSet
}

// String summarizes the run on one line: the concrete algorithm, the
// plan cost and the search-space counters.
func (r *Result) String() string {
	return fmt.Sprintf("%s: cost=%.4g cmds=%d plans=%d subqueries=%d",
		r.Used, r.Plan.Cost, r.Counter.CMDs, r.Counter.Plans, r.Counter.Subqueries)
}

// Optimize runs the selected algorithm. ctx bounds the run; on
// cancellation or deadline the error is a *obs.PhaseError wrapping
// ctx's cause (the paper's experiments cap optimization at 600 s and
// report "N/A").
func Optimize(ctx context.Context, in *Input, algo Algorithm) (*Result, error) {
	return run(ctx, in, func(k *Kit) (*Result, error) { return dispatch(k, algo) })
}

// OptimizeWithOptions runs the top-down enumeration with an arbitrary
// combination of the TD-CMDP pruning rules — used by the ablation
// study; Optimize's named algorithms cover the paper's combinations.
func OptimizeWithOptions(ctx context.Context, in *Input, o Options) (*Result, error) {
	return run(ctx, in, func(k *Kit) (*Result, error) { return runTD(k, o) })
}

// run plans through a new Kit and records the finished run in
// in.Inst.
func run(ctx context.Context, in *Input, search func(*Kit) (*Result, error)) (*Result, error) {
	var start time.Time
	if in.Inst != nil {
		start = time.Now()
	}
	k, err := NewKit(ctx, in)
	if err != nil {
		return nil, err
	}
	res, err := search(k)
	if err == nil && in.Inst != nil {
		in.Inst.recordRun(res.Used, time.Since(start), res.Counter)
	}
	return res, err
}

func dispatch(k *Kit, algo Algorithm) (*Result, error) {
	switch algo {
	case TDCMD:
		return runTD(k, Options{})
	case TDCMDP:
		return runTD(k, CMDPOptions())
	case HGRTDCMD:
		return runHGR(k)
	case TDAuto:
		return runAuto(k)
	case Greedy:
		return runGreedy(k)
	}
	return nil, fmt.Errorf("opt: unknown algorithm %d", algo)
}

func normalize(in *Input) error {
	if in.Query == nil {
		return fmt.Errorf("opt: nil query")
	}
	if in.Views == nil {
		v, err := querygraph.Build(in.Query)
		if err != nil {
			return err
		}
		in.Views = v
	}
	if in.Est == nil {
		return fmt.Errorf("opt: nil estimator")
	}
	if in.Params.Nodes == 0 {
		in.Params = cost.Default
	}
	return nil
}

func runTD(k *Kit, o Options) (*Result, error) {
	sp := &space{Kit: k, jg: k.JG, opt: o}
	p, err := sp.run()
	if err != nil {
		return nil, err
	}
	used := TDCMD
	if o.PruneCCMD || o.BinaryBroadcastOnly || o.LocalShortcut {
		used = TDCMDP
	}
	return &Result{Plan: p, Counter: sp.counter, Used: used}, nil
}

// runAuto implements the decision tree of Fig. 5: for join graphs with
// |V_T|/|V_J| ≥ 1 (acyclic or single-cycle), low-degree join variables
// mean TD-CMD is affordable; high-degree variables route to TD-CMDP
// for moderate sizes and HGR-TD-CMD for large ones. Join graphs with
// more join variables than patterns (multiple cycles) use TD-CMD only
// while small.
func runAuto(k *Kit) (*Result, error) {
	algo := chooseAuto(k.JG)
	res, err := dispatch(k, algo) // not Optimize: the outer call records the run metrics once
	if err != nil {
		return nil, err
	}
	res.Used = algo
	return res, nil
}

func chooseAuto(jg *querygraph.JoinGraph) Algorithm {
	nt, nj := jg.NumTP, jg.NumJoinVars()
	if nj == 0 || nt >= nj {
		if jg.MaxVarDegree() < ThetaD {
			return TDCMD
		}
		if nt < ThetaN {
			return TDCMDP
		}
		return HGRTDCMD
	}
	if nt < LambdaN {
		return TDCMD
	}
	return HGRTDCMD
}
