// Package sparqlopt is a parallel SPARQL query optimizer and simulated
// execution engine reproducing "Parallel SPARQL Query Optimization"
// (Wu, Zhou, Jin, Deshpande — ICDE 2017).
//
// The library optimizes basic-graph-pattern SPARQL queries into k-ary
// bushy plans over partitioned RDF data. It provides:
//
//   - the paper's optimal-efficiency top-down plan enumerator TD-CMD
//     and its heuristics TD-CMDP, HGR-TD-CMD and TD-Auto;
//   - the baseline optimizers MSC (CliqueSquare-style) and DP-Bushy it
//     is evaluated against, plus a binary-only DP for ablations;
//   - a generic data partitioning model with five concrete methods
//     (hash on subject+object, 2-hop forward and bidirectional semantic
//     hash, path partitioning, undirected one-hop with a graph
//     partitioner);
//   - a simulated shared-nothing cluster that executes the plans with
//     local, broadcast and repartition joins;
//   - an observability layer (WithObservability): Prometheus-style
//     metrics, per-query lifecycle traces and a slow-query log.
//
// Quick start:
//
//	ds := sparqlopt.NewDataset()
//	ds.Add("http://a", "http://knows", "http://b")
//	sys, _ := sparqlopt.Open(ds, sparqlopt.WithNodes(4))
//	res, _ := sys.Run(context.Background(),
//	    `SELECT * WHERE { ?x <http://knows> ?y . }`)
//	fmt.Println(res.Rows)
//
// Run defaults to the TD-Auto algorithm; per-call behavior is set with
// RunOptions (WithAlgorithm, WithDeadline, WithTraceSink). A bare
// Algorithm is itself a RunOption, so the older positional call style
// Run(ctx, src, sparqlopt.TDCMD) still compiles and behaves
// identically.
package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/ntriples"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/plancache"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/resilience/health"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// Re-exported core types. The concrete implementations live under
// internal/; these aliases are the supported API surface.
type (
	// Dataset is a dictionary-encoded set of RDF triples.
	Dataset = rdf.Dataset
	// Query is a parsed basic-graph-pattern SELECT query.
	Query = sparql.Query
	// Plan is a physical k-ary bushy query plan.
	Plan = plan.Node
	// Algorithm selects an optimization algorithm.
	Algorithm = opt.Algorithm
	// Method is an RDF data partitioning method.
	Method = partition.Method
	// CostParams are the cost-model constants of the paper's Table II.
	CostParams = cost.Params
	// OptimizeResult carries the plan plus search-space counters.
	OptimizeResult = opt.Result
	// ExecResult carries distinct result rows plus execution metrics.
	ExecResult = engine.Result
	// CacheInfo describes plan-cache behavior of one Run (on ExecResult).
	CacheInfo = engine.CacheInfo
	// CacheCounters is a snapshot of the plan cache's cumulative
	// hit/miss/evict/singleflight counters.
	CacheCounters = plancache.Counters
	// RunOption configures one serving call (Run/Optimize and friends).
	RunOption = opt.RunOption
	// Registry is a metrics registry with Prometheus text exposition.
	Registry = obs.Registry
	// Trace is the recorded lifecycle of one serving call.
	Trace = obs.Trace
	// Span is one timed step of a trace.
	Span = obs.Span
	// SlowQueryEntry is one slow-query log record.
	SlowQueryEntry = obs.SlowQueryEntry
	// ParseError is the typed failure of ParseQuery/Run on malformed
	// query text; it carries the byte offset of the problem.
	ParseError = sparql.ParseError
	// PhaseError annotates a cancellation with the query phase it
	// interrupted; errors.Is(err, context.Canceled/DeadlineExceeded)
	// still works through it.
	PhaseError = obs.PhaseError
	// OverloadError is the typed rejection of admission control; it
	// matches ErrOverloaded and carries a RetryAfter hint.
	OverloadError = resilience.OverloadError
	// BudgetError is the typed failure of a memory-budget trip; it
	// matches ErrBudgetExceeded and names the operator or phase that
	// asked for the memory.
	BudgetError = resilience.BudgetError
	// PanicError is a worker panic recovered into an error, stack
	// included. The panicking query fails; the process survives.
	PanicError = resilience.PanicError
	// UnavailableError is the typed fast failure of a query that
	// touched a dead node's unreplicated fragment; it matches
	// ErrUnavailable and carries the dead node set and a retry hint.
	UnavailableError = resilience.UnavailableError
	// NodeStatus is one simulated node's health as tracked by the
	// failover breakers (see System.NodeHealth).
	NodeStatus = health.NodeStatus
	// NodeState is a node breaker's position in the failure lifecycle:
	// NodeHealthy, NodeOpen (considered dead) or NodeHalfOpen (probing).
	NodeState = health.State
	// FaultSet is a deterministic fault-injection plan for chaos tests:
	// armed sites fire as a pure function of (seed, site, hit count).
	FaultSet = faultinject.Set
	// FaultSite names one instrumented fault-injection point; the
	// Fault* constants and FaultNodeScan/FaultNodeShuffle produce them.
	FaultSite = faultinject.Site
)

// Node breaker states (see NodeState).
const (
	NodeHealthy  = health.Healthy
	NodeOpen     = health.Open
	NodeHalfOpen = health.HalfOpen
)

// Typed-failure sentinels of the serving path, for errors.Is.
var (
	// ErrOverloaded matches admission-control rejections.
	ErrOverloaded = resilience.ErrOverloaded
	// ErrBudgetExceeded matches memory-budget trips.
	ErrBudgetExceeded = resilience.ErrBudgetExceeded
	// ErrUnavailable matches queries failed fast because a dead node's
	// fragment had no live replica.
	ErrUnavailable = resilience.ErrUnavailable
	// ErrUnsupportedQuery matches queries the optimizer cannot plan: a
	// basic graph pattern whose join graph is disconnected, or one with
	// more than 64 triple patterns.
	ErrUnsupportedQuery = querygraph.ErrUnsupported
)

// NewFaultSet returns a deterministic fault-injection plan seeded with
// seed; arm sites on it and pass it to a call with WithFaultInjection.
// See the Fault* site constants for where faults can fire.
func NewFaultSet(seed int64) *FaultSet { return faultinject.New(seed) }

// Fault-injection sites accepted by FaultSet.Arm and friends.
const (
	// FaultOptPanic panics inside an optimizer enumeration worker.
	FaultOptPanic = faultinject.OptPanic
	// FaultOptBudget forces a memo budget trip during enumeration.
	FaultOptBudget = faultinject.OptBudget
	// FaultEnginePanic panics inside an engine node worker.
	FaultEnginePanic = faultinject.EnginePanic
	// FaultEngineSlow stalls an operator (cancellably) by an armed delay.
	FaultEngineSlow = faultinject.EngineSlow
	// FaultEngineBudget forces a budget trip at an engine operator.
	FaultEngineBudget = faultinject.EngineBudget
)

// FaultNodeScan returns the node-scoped site "node/<i>/scan": while
// armed and firing, node i fails to serve fragment scans, simulating
// the node's death on the read path. With WithNodeFailover the engine
// retries, then serves the scan from replicas (or fails fast with a
// typed *UnavailableError when none cover it); without it the query
// fails immediately.
func FaultNodeScan(node int) FaultSite { return faultinject.NodeScan(node) }

// FaultNodeShuffle returns the node-scoped site "node/<i>/shuffle":
// while armed and firing, node i fails to accept repartition-join
// scatter partitions; failover re-homes its buckets onto healthy
// workers.
func FaultNodeShuffle(node int) FaultSite { return faultinject.NodeShuffle(node) }

// The optimization algorithms of the paper.
const (
	// TDCMD is the exhaustive top-down enumeration (optimal plans).
	TDCMD = opt.TDCMD
	// TDCMDP applies the three pruning rules of §IV-A.
	TDCMDP = opt.TDCMDP
	// HGRTDCMD reduces the join graph before enumerating (§IV-B).
	HGRTDCMD = opt.HGRTDCMD
	// TDAuto picks among the above via the decision tree of §IV-C.
	TDAuto = opt.TDAuto
	// Greedy is the left-deep greedy baseline — the last rung of the
	// degradation ladder: near-zero optimization cost, no optimality.
	Greedy = opt.Greedy
)

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return rdf.NewDataset() }

// ReadNTriples loads an N-Triples stream into a fresh dataset. It
// parses the stream line by line and commits the load once: the
// dataset's first epoch holds every triple.
func ReadNTriples(r io.Reader) (*Dataset, error) { return ntriples.Read(r) }

// WriteNTriples serializes a dataset as N-Triples.
func WriteNTriples(w io.Writer, ds *Dataset) error { return ntriples.Write(w, ds) }

// ParseQuery parses the supported SPARQL subset (PREFIX + SELECT over
// a basic graph pattern).
func ParseQuery(src string) (*Query, error) { return sparql.Parse(src) }

// PartitionMethod returns a built-in partitioning method by name:
// "hash-so", "2f", "2fb", "path-bmc" or "un-1hop".
func PartitionMethod(name string) (Method, error) { return partition.ByName(name) }

// DefaultCostParams returns the calibrated constants of Table II on a
// 10-node cluster.
func DefaultCostParams() CostParams { return cost.Default }

// AlgorithmByName maps a serving algorithm's CLI name — "td-cmd",
// "td-cmdp", "hgr-td-cmd", "td-auto", "greedy" — to its Algorithm
// value. sparqld and the HTTP endpoint accept exactly these names;
// the sparqlopt CLI accepts them plus the baselines msc, dp-bushy and
// binary-dp, which run outside the serving path.
func AlgorithmByName(name string) (Algorithm, bool) {
	switch name {
	case "td-cmd":
		return TDCMD, true
	case "td-cmdp":
		return TDCMDP, true
	case "hgr-td-cmd":
		return HGRTDCMD, true
	case "td-auto":
		return TDAuto, true
	case "greedy":
		return Greedy, true
	}
	return 0, false
}

// The package has three option families, one per configuration scope:
//
//   - Option configures a System for its lifetime and is passed to
//     Open: data placement (WithMethod, WithNodes), serving
//     infrastructure (WithPlanCache, WithAdmissionControl,
//     WithMemoryBudget, WithNodeFailover) and observability
//     (WithObservability).
//
//   - RunOption configures one serving call and is passed to Run,
//     RunStream, Optimize and friends: WithAlgorithm (or a bare
//     Algorithm value; AlgorithmByName maps the names), WithLimit,
//     WithDeadline, WithTraceSink, WithFaultInjection.
//
//   - ObsOption configures the observability layer inside
//     WithObservability: WithSlowQueryLog.
//
// Every option family ignores nil and zero values where that reads as
// "default", so call sites list only what they change.

// WithAlgorithm selects the optimization algorithm for one call
// (default TD-Auto). Passing a bare Algorithm value is equivalent.
func WithAlgorithm(a Algorithm) RunOption {
	return opt.RunOptionFunc(func(s *opt.RunSettings) { s.Algorithm = a })
}

// WithDeadline bounds one call with a per-call timeout, layered on any
// deadline ctx already carries. On expiry the error wraps
// context.DeadlineExceeded and names the query phase it interrupted.
func WithDeadline(d time.Duration) RunOption {
	return opt.RunOptionFunc(func(s *opt.RunSettings) { s.Deadline = d })
}

// WithTraceSink enables lifecycle tracing for one call: the completed
// trace (parse → cache lookup → stats → enumerate → execute, with
// per-operator spans) is handed to sink before the call returns.
// Tracing works with or without WithObservability.
func WithTraceSink(sink func(*Trace)) RunOption {
	return opt.RunOptionFunc(func(s *opt.RunSettings) { s.TraceSink = sink })
}

// WithFaultInjection arms deterministic fault injection for one call —
// the chaos-testing hook. A nil set is a no-op. Production callers
// never pass this; the sites cost one nil check each when disarmed.
func WithFaultInjection(f *FaultSet) RunOption {
	return opt.RunOptionFunc(func(s *opt.RunSettings) { s.Faults = f })
}

// WithLimit caps one call at the first n result rows (n <= 0 means
// unlimited, the default). The cap applies to the engine's
// deterministic emission order — the order RunStream yields — before
// Run's final sort, so streaming and materializing calls agree on
// which rows a limit keeps. Reaching the limit is a clean end of the
// stream, not an error.
func WithLimit(n int64) RunOption {
	return opt.RunOptionFunc(func(s *opt.RunSettings) { s.Limit = n })
}

// System is a partitioned dataset ready to optimize and execute
// queries — the in-process analogue of the paper's prototype cluster.
type System struct {
	ds      *Dataset
	method  Method
	params  CostParams
	engine  *engine.Engine
	cache   *plancache.Cache // nil = caching disabled
	obs     *obsState        // nil = observability disabled
	optInst *opt.Instruments // nil when observability is disabled

	adm     *resilience.Admission   // nil = admission control disabled
	budget  *resilience.Budget      // nil = memory budgets disabled
	resInst *resilience.Instruments // nil when observability is disabled

	recovery *recovery // nil = node failover disabled

	tracker *stats.Tracker // incremental per-predicate statistics
	unhook  func()         // unregisters the dataset commit hook
}

// obsState bundles the observability wiring of one System: the metrics
// registry, the root serving-path instruments and the slow-query log.
type obsState struct {
	registry     *obs.Registry
	slowLog      *obs.SlowLog
	queries      *obs.Counter
	queryErrors  *obs.Counter
	querySeconds *obs.Histogram
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	method        Method
	nodes         int
	planCache     int
	maxConcurrent int
	maxQueued     int
	memPerQuery   int64
	memTotal      int64
	obs           *obsConfig
	failover      *NodeFailoverConfig
	breaker       health.Config // fixed at the health defaults outside tests
}

type obsConfig struct {
	slowCap       int
	slowThreshold time.Duration
}

// WithMethod selects the data partitioning method (default HashSO).
func WithMethod(m Method) Option { return func(c *openConfig) { c.method = m } }

// WithNodes sets the simulated cluster size (default 10, as in the
// paper's testbed).
func WithNodes(n int) Option { return func(c *openConfig) { c.nodes = n } }

// WithPlanCache enables the serving-path plan cache with capacity for
// (at least) n query fingerprints; n <= 0 (the default) disables
// caching. With the cache enabled, System.Run canonicalizes each
// query, serves repeats of the same query shape from a cached plan
// template (skipping statistics collection and plan enumeration
// entirely), and deduplicates concurrent optimizations of one shape
// through a singleflight layer. Cached plans are tagged with the
// dataset epoch; a write drops only the plans of query shapes that
// mention a predicate it touched or a variable predicate, and retags
// the others to the new epoch (CacheCounters.Retained). Cached and
// uncached runs return bit-identical rows; a cached plan may be
// suboptimal for a query whose constants are much more or less
// selective than those of the run that produced the template.
func WithPlanCache(n int) Option { return func(c *openConfig) { c.planCache = n } }

// WithAdmissionControl gates the serving path (Run/RunQuery): at most
// maxConcurrent queries execute at once, up to maxQueued more wait
// FIFO for a slot, and everything beyond that fails fast with a typed
// *OverloadError (matching ErrOverloaded) carrying a retry-after hint.
// Queueing is deadline-aware: a query whose context is already expired
// — or expires while queued — is never admitted. maxConcurrent <= 0
// disables admission control (the default).
func WithAdmissionControl(maxConcurrent, maxQueued int) Option {
	return func(c *openConfig) {
		c.maxConcurrent = maxConcurrent
		c.maxQueued = maxQueued
	}
}

// WithMemoryBudget bounds the memory the system materializes:
// perQuery bytes per running query, total bytes across all concurrent
// queries (either may be 0 = unlimited). The engine's relation arenas
// and the optimizer's memo reserve against the budget before
// allocating; a reservation that would exceed a limit fails the query
// with a typed *BudgetError (matching ErrBudgetExceeded) naming the
// operator or phase — and, when the trip happened during optimization,
// the serving path first retries down its fallback ladder. Accounting
// is approximate (arena capacities and memo entries, not every byte),
// but it is charged before allocation, so trips abort queries, not the
// process.
func WithMemoryBudget(perQuery, total int64) Option {
	return func(c *openConfig) {
		c.memPerQuery = perQuery
		c.memTotal = total
	}
}

// NodeFailoverConfig configures node failover. Zero fields take
// defaults: 3 attempts, 1ms base / 50ms cap backoff. Each node's
// breaker is fixed: it opens after 3 consecutive failures (or a 50%
// failure rate over at least 5 operations in a 10s window), stays open
// 1s, and closes after 2 successful half-open probes.
type NodeFailoverConfig struct {
	// MaxAttempts is how many times a failing node operation is tried
	// (first try included) before the node is declared dead for the
	// execution and failover kicks in.
	MaxAttempts int
	// RetryBase and RetryCap bound the capped exponential backoff
	// between attempts.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Clock overrides the breakers' time source — deterministic tests
	// only; nil means time.Now.
	Clock func() time.Time
}

// WithNodeFailover makes node failure a first-class fault domain the
// system survives. Each simulated node gets a health breaker fed by
// the node-scoped fault sites (FaultNodeScan, FaultNodeShuffle). A
// node operation that keeps failing past its retries is declared dead
// for the execution: scans of the dead node's fragment are served from
// replica copies on healthy nodes — bit-identical to the healthy run
// whenever every stranded triple has a live copy — and repartition
// scatter partitions are re-homed onto healthy workers. A query that
// needs a dead node's unreplicated triples fails fast with a typed
// *UnavailableError (never a hang or a silent partial result). Such a
// failure, or a node's breaker staying open, triggers a background
// recovery round that re-replicates the dead nodes' uncovered triples
// onto healthy nodes, in predicate order, within a fixed budget of 0.5×
// the dataset in copies (System.WaitForMigrations waits for it).
func WithNodeFailover(fc NodeFailoverConfig) Option {
	return func(c *openConfig) { c.failover = &fc }
}

// ObsOption configures WithObservability.
type ObsOption func(*obsConfig)

// WithSlowQueryLog keeps the last capacity queries that ran at or over
// threshold (failed queries are always logged). Entries are read back
// with System.SlowQueries.
func WithSlowQueryLog(capacity int, threshold time.Duration) ObsOption {
	return func(c *obsConfig) {
		c.slowCap = capacity
		c.slowThreshold = threshold
	}
}

// WithObservability turns on the metrics layer: the optimizer, engine,
// plan cache and serving path register Prometheus-style instruments,
// exposed through System.WriteMetrics. An optional ObsOption adds a
// slow-query log. When this option is absent every instrument hook in
// the hot paths reduces to one nil check — the overhead is below the
// benchmark noise floor (see the obsoverhead experiment).
func WithObservability(opts ...ObsOption) Option {
	return func(c *openConfig) {
		cfg := &obsConfig{}
		for _, o := range opts {
			o(cfg)
		}
		c.obs = cfg
	}
}

// Open partitions the dataset and builds the execution engine.
func Open(ds *Dataset, opts ...Option) (*System, error) {
	cfg := openConfig{method: partition.HashSO, nodes: cost.Default.Nodes}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nodes <= 0 {
		return nil, fmt.Errorf("sparqlopt: cluster size must be positive")
	}
	params := cost.Default
	params.Nodes = cfg.nodes
	s := &System{
		ds:     ds,
		method: cfg.method,
		params: params,
		cache:  plancache.New(cfg.planCache),
		budget: resilience.NewBudget(cfg.memPerQuery, cfg.memTotal),
	}
	// The placement, the engine and the statistics come from one
	// snapshot under the dataset's writer lock, which registers the
	// commit hook before it is released: no write falls between the
	// placement and the first delta, and every later epoch is folded
	// into the serving snapshot under that lock, in epoch order.
	var err error
	s.unhook = ds.Subscribe(func(snap *rdf.Snapshot) func(rdf.WriteDelta) {
		var placement *partition.Placement
		if placement, err = cfg.method.Partition(ds, cfg.nodes); err != nil {
			return nil
		}
		// The engine's snapshot is the one record of the placement from
		// here on: the method's unsorted fragments are not kept.
		s.engine = engine.New(ds.Dict, placement)
		s.engine.SetData(snap)
		s.tracker = stats.NewTracker(snap)
		return s.applyWrite
	})
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.SetInvalidation(ds.Dict.Lookup, ds.ChangedBetween)
	}
	if cfg.maxConcurrent > 0 {
		s.adm = resilience.NewAdmission(cfg.maxConcurrent, cfg.maxQueued)
	}
	if cfg.failover != nil {
		s.recovery = newRecovery(s.engine, s.budget, cfg.nodes, *cfg.failover, cfg.breaker)
	}
	if cfg.obs != nil {
		r := obs.NewRegistry()
		s.obs = &obsState{
			registry:     r,
			queries:      r.Counter("query_runs_total", "Serving calls (Run/RunQuery)."),
			queryErrors:  r.Counter("query_errors_total", "Serving calls that returned an error."),
			querySeconds: r.Histogram("query_seconds", "End-to-end serving latency.", nil),
		}
		if cfg.obs.slowCap > 0 {
			s.obs.slowLog = obs.NewSlowLog(cfg.obs.slowCap, cfg.obs.slowThreshold)
			log := s.obs.slowLog
			r.GaugeFunc("slow_queries_total", "Queries ever recorded in the slow-query log.",
				func() float64 { return float64(log.Total()) })
		}
		s.optInst = opt.NewInstruments(r)
		s.engine.SetInstruments(engine.NewInstruments(r))
		s.cache.RegisterMetrics(r)
		s.resInst = resilience.NewInstruments(r)
		s.resInst.ObserveAdmission(s.adm)
		s.resInst.ObserveBudget(s.budget)
		s.recovery.register(r)
	}
	return s, nil
}

// Method returns the partitioning method in use.
func (s *System) Method() Method { return s.method }

// ReplicationFactor reports how much the partitioning replicated the
// data across nodes — including any copies recovery rounds added: the
// triples the serving snapshot stores (each ingested triple once) over
// the size of the dataset snapshot it pins.
func (s *System) ReplicationFactor() float64 {
	snap := s.engine.Snapshot()
	n := snap.Data().Len()
	if n == 0 {
		return 0
	}
	return float64(snap.View().Copies()) / float64(n)
}

// MetricsRegistry returns the system's metrics registry, nil when
// observability is disabled.
func (s *System) MetricsRegistry() *Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.registry
}

// WriteMetrics writes the current metrics in Prometheus text
// exposition format. It errors when the system was opened without
// WithObservability.
func (s *System) WriteMetrics(w io.Writer) error {
	if s.obs == nil {
		return fmt.Errorf("sparqlopt: observability disabled (Open with WithObservability)")
	}
	return s.obs.registry.WriteMetrics(w)
}

// SlowQueries returns the retained slow-query log entries, newest
// first; nil when no slow-query log is configured.
func (s *System) SlowQueries() []SlowQueryEntry {
	if s.obs == nil {
		return nil
	}
	return s.obs.slowLog.Entries()
}

// Optimize parses and optimizes a query. The query is parsed exactly
// once and the parsed form is shared with statistics collection and
// graph-view construction (callers that also execute should prefer
// Run, or parse once themselves and use OptimizeQuery + Execute, to
// avoid re-parsing).
func (s *System) Optimize(ctx context.Context, query string, opts ...RunOption) (*OptimizeResult, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.OptimizeQuery(ctx, q, opts...)
}

// OptimizeQuery optimizes an already-parsed query (default TD-Auto).
// It never consults the plan cache, which applies only to Run, the
// serving path.
func (s *System) OptimizeQuery(ctx context.Context, q *Query, opts ...RunOption) (res *OptimizeResult, err error) {
	set := opt.NewRunSettings(opts)
	ctx, cancel := withDeadline(ctx, set.Deadline)
	defer cancel()
	var tr *obs.Trace
	if set.TraceSink != nil {
		tr = obs.NewTrace(q.String())
		tr.Algorithm = set.Algorithm.String()
		defer func() {
			tr.Finish(err)
			set.TraceSink(tr)
		}()
	}
	g := s.budget.NewGauge()
	defer g.Reset()
	return s.optimizeTraced(ctx, q, set.Algorithm, set, g, tr, s.engine.Snapshot())
}

// optimizeTraced is the uncached optimization path: collect statistics
// and enumerate, each under its own trace phase. Memo growth charges
// against g. Statistics are collected over the pinned snapshot snap,
// so concurrent ingest cannot shift the numbers mid-optimization.
func (s *System) optimizeTraced(ctx context.Context, q *Query, algo Algorithm, set opt.RunSettings, g *resilience.Gauge, tr *obs.Trace, snap *engine.Snap) (*OptimizeResult, error) {
	sp := tr.Span("stats")
	st, err := s.collect(q, snap)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.SetAttrInt("scanned", int64(st.Scanned))
	in, err := s.inputWithStats(q, st, set, g)
	if err != nil {
		return nil, err
	}
	sp = tr.Span("enumerate")
	res, err := opt.Optimize(ctx, in, algo)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.SetAttr("algorithm", res.Used.String())
	sp.SetAttrInt("cmds", res.Counter.CMDs)
	return res, nil
}

// collect gathers per-pattern statistics for q over the pinned
// snapshot. The incremental tracker answers every constant-predicate
// pattern in O(1) when it is current at the snapshot's epoch; the
// other shapes scan the pinned snapshot.
func (s *System) collect(q *Query, snap *engine.Snap) (*stats.Stats, error) {
	return stats.CollectTracked(s.tracker, snap.Data(), q)
}

// inputWithStats assembles the optimizer input around an existing
// statistics snapshot — the single construction point both the cached
// and uncached serving paths funnel through, so a query is parsed and
// its views are built exactly once per Run, and the optimizer's
// instruments are wired everywhere or nowhere.
func (s *System) inputWithStats(q *Query, st *stats.Stats, set opt.RunSettings, g *resilience.Gauge) (*opt.Input, error) {
	views, err := querygraph.Build(q)
	if err != nil {
		return nil, err
	}
	est, err := stats.NewEstimator(q, st)
	if err != nil {
		return nil, err
	}
	return &opt.Input{
		Query: q, Views: views, Est: est,
		Params: s.params, Method: s.method,
		Inst: s.optInst, Gauge: g, Faults: set.Faults,
	}, nil
}

// Execute runs a previously optimized plan on the simulated cluster.
func (s *System) Execute(ctx context.Context, p *Plan, q *Query) (*ExecResult, error) {
	return s.engine.Execute(ctx, p, q)
}

// Run optimizes and executes in one step — the materializing serving
// path. The query text is parsed exactly once; the parsed form feeds
// canonicalization, optimization and execution. With WithPlanCache,
// repeats of a query shape skip statistics collection and plan
// enumeration entirely (ExecResult.CacheInfo reports what happened).
// Run is RunStream plus collect-and-sort: it drains the same row
// stream into ExecResult.Rows in lexicographic order, charging the
// materialized result to the call's memory budget. Result sets too
// big to hold belong on RunStream.
func (s *System) Run(ctx context.Context, query string, opts ...RunOption) (*ExecResult, error) {
	return s.runMaterialized(ctx, query, nil, opt.NewRunSettings(opts))
}

// RunQuery optimizes and executes an already-parsed query.
func (s *System) RunQuery(ctx context.Context, q *Query, opts ...RunOption) (*ExecResult, error) {
	return s.runMaterialized(ctx, "", q, opt.NewRunSettings(opts))
}

// runMaterialized drains the streaming pipeline into a sorted result.
func (s *System) runMaterialized(ctx context.Context, src string, q *Query, set opt.RunSettings) (*ExecResult, error) {
	rows, err := s.stream(ctx, src, q, set)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}

// withDeadline layers the per-call deadline onto ctx; the returned
// cancel is a no-op when no deadline was requested.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// admit passes the call through admission control (a no-op returning
// a no-op release when admission is disabled).
func (s *System) admit(ctx context.Context) (func(), error) {
	if s.adm == nil {
		return func() {}, nil
	}
	release, err := s.adm.Acquire(ctx, 1)
	if err != nil {
		if errors.Is(err, resilience.ErrOverloaded) {
			s.resInst.AdmissionRejected()
		}
		return nil, err
	}
	s.resInst.AdmissionAccepted()
	return release, nil
}

// applyWrite is the dataset commit hook: it folds one published epoch
// — a write's delta — into the engine and the incremental statistics
// tracker before the commit returns, under the dataset's writer lock,
// so both follow the dataset's epochs in order. Both applies are in-memory; a panic here is a bug and
// reaches the writer, as one in rdf.Dataset would.
func (s *System) applyWrite(wd rdf.WriteDelta) {
	s.engine.ApplyIngest(wd.Triples, wd.Snap)
	s.tracker.Apply(wd.Triples, wd.Epoch)
}

// FlushWrites reports whether the serving snapshot pins the dataset's
// current epoch. Every commit applies before it returns, so it is
// false only after Close detached the system from later writes.
//
// Deprecated: there is nothing to flush; this is only that check.
func (s *System) FlushWrites() bool { return s.engine.Snapshot().Data().Epoch() == s.ds.Epoch() }

// Close detaches the system from its dataset's commit hook. Writes
// committed after Close are still durable in the dataset but no longer
// feed this system's serving snapshot; use it when a System is
// discarded while others keep serving the same dataset.
func (s *System) Close() {
	if s.unhook != nil {
		s.unhook()
		s.unhook = nil
	}
}

// degradable reports whether a planning failure is worth retrying with
// a cheaper algorithm: the call itself is still alive (its context has
// not expired) and the failure is one the ladder can help with — a
// memory-budget trip or a recovered enumeration panic.
func degradable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var pe *resilience.PanicError
	return errors.Is(err, resilience.ErrBudgetExceeded) ||
		errors.As(err, &pe)
}

// ladderSteps returns the fallback algorithms to try, in order, after
// a degradable failure of algo: first the pruned enumeration (much
// smaller memo, same plan most of the time), then the greedy left-deep
// baseline (no memo at all, always finishes).
func ladderSteps(algo Algorithm) []Algorithm {
	switch algo {
	case Greedy:
		return nil
	case TDCMDP:
		return []Algorithm{Greedy}
	default: // TDCMD, HGRTDCMD, TDAuto
		return []Algorithm{TDCMDP, Greedy}
	}
}

// planLadder produces the physical plan for q, walking the degradation
// ladder when planning fails recoverably. The returned degraded slice
// — one human-readable entry per fallback taken — ends up on
// ExecResult.Degraded; it is nil for the healthy path.
func (s *System) planLadder(ctx context.Context, q *Query, set opt.RunSettings, g *resilience.Gauge, tr *obs.Trace, snap *engine.Snap) (*opt.Result, engine.CacheInfo, []string, error) {
	res, info, err := s.plan(ctx, q, set, g, tr, snap)
	if err == nil {
		return res, info, nil, nil
	}
	var degraded []string
	prev := set.Algorithm
	for _, next := range ladderSteps(set.Algorithm) {
		if !degradable(ctx, err) {
			break
		}
		degraded = append(degraded, fmt.Sprintf("%s failed (%v); retrying with %s", prev, err, next))
		g.Reset() // a failed attempt's memo charges must not starve the retry
		res, err = s.optimizeTraced(ctx, q, next, set, g, tr, snap)
		if err == nil {
			return res, engine.CacheInfo{}, degraded, nil
		}
		prev = next
	}
	return nil, engine.CacheInfo{}, degraded, err
}

// plan produces the physical plan for q: through the plan cache when
// one is configured, otherwise the plain stats + enumerate pipeline.
func (s *System) plan(ctx context.Context, q *Query, set opt.RunSettings, g *resilience.Gauge, tr *obs.Trace, snap *engine.Snap) (*opt.Result, engine.CacheInfo, error) {
	if s.cache == nil {
		res, err := s.optimizeTraced(ctx, q, set.Algorithm, set, g, tr, snap)
		return res, engine.CacheInfo{}, err
	}
	res, info, err := s.cache.Optimize(ctx, q, set.Algorithm, snap.Data().Epoch(),
		func(q *sparql.Query) (*stats.Stats, error) {
			return s.collect(q, snap)
		},
		func(ctx context.Context, q *sparql.Query, st *stats.Stats) (*opt.Result, error) {
			in, err := s.inputWithStats(q, st, set, g)
			if err != nil {
				return nil, err
			}
			return opt.Optimize(ctx, in, set.Algorithm)
		}, tr)
	if err != nil {
		return nil, engine.CacheInfo{}, err
	}
	return res, engine.CacheInfo{Enabled: true, Hit: info.Hit, Shared: info.Shared, Epoch: info.Epoch}, nil
}

// CacheStats returns the plan cache's cumulative counters; the zero
// snapshot when caching is disabled.
func (s *System) CacheStats() CacheCounters {
	if s.cache == nil {
		return CacheCounters{}
	}
	return s.cache.Counters()
}

// Term resolves a result value back to its term string.
func (s *System) Term(id rdf.TermID) string { return s.ds.Dict.Term(id) }

// TermEntry resolves a result value to its term string and class in
// one lock-free read: what a result encoder needs per cell.
func (s *System) TermEntry(id rdf.TermID) (string, TermClass) { return s.ds.Dict.Entry(id) }

// FormatResult renders an execution result as tab-separated lines
// with a header row.
func (s *System) FormatResult(res *ExecResult) string {
	var b strings.Builder
	for i, v := range res.Vars {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteByte('?')
		b.WriteString(v)
	}
	b.WriteByte('\n')
	for _, row := range res.Rows {
		for i, id := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(s.ds.Dict.Term(id))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Reference executes the query on a single node over the unpartitioned
// dataset — ground truth for validating distributed execution.
func Reference(ds *Dataset, q *Query) (*ExecResult, error) {
	return engine.Reference(ds, q)
}
