package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/sparql"
)

// Metrics reports what one plan execution did.
type Metrics struct {
	// ScannedTriples counts index postings touched by leaf scans.
	ScannedTriples int64
	// TransferredRows counts rows moved across node boundaries: every
	// (row, receiving node) pair of broadcast gathers/replications and
	// every repartitioned row landing on a different node.
	TransferredRows int64
	// TransferredBytes is the wire volume of TransferredRows: each
	// moved row costs its width times the TermID size (4 bytes). Like
	// every Metrics field it is schedule-invariant.
	TransferredBytes int64
	// JoinedRows counts rows produced by all join operators.
	JoinedRows int64
}

// termIDBytes is the wire size of one bound term (TermID is a uint32).
const termIDBytes = 4

// CacheInfo reports how the serving-path plan cache treated the Run
// that produced a Result. The zero value means the run did not go
// through a cache (caching disabled, or the caller optimized and
// executed separately).
type CacheInfo struct {
	// Enabled reports that the run went through a plan cache.
	Enabled bool
	// Hit reports that the plan came from the cache rather than a
	// fresh optimization.
	Hit bool
	// Shared reports that the run blocked on another goroutine's
	// in-flight optimization of the same fingerprint (singleflight).
	Shared bool
	// Epoch is the dataset epoch the served plan was derived under.
	Epoch uint64
}

// Result is the outcome of a query execution. On a streamed execution
// (ExecuteStream) Metrics, Trace, FlatRowCount and Returned are complete
// only once the stream has ended (Stream.Finish): the root operator runs
// as the stream is read.
type Result struct {
	// Vars names the output columns.
	Vars []string
	// Rows holds the distinct result bindings, lexicographically sorted.
	Rows [][]rdf.TermID
	// Metrics instruments the run (zero for the reference executor).
	Metrics Metrics
	// Trace is the per-operator execution profile (EXPLAIN ANALYZE),
	// mirroring the plan tree.
	Trace *TraceNode
	// Opt is the optimization outcome behind the executed plan — the
	// plan itself, search-space counters and the concrete algorithm
	// used. It is nil when the caller executed a hand-built plan; on a
	// plan-cache hit it is the result of the optimization that produced
	// the cached template.
	Opt *opt.Result
	// CacheInfo describes plan-cache behavior when the result came from
	// a cached serving path (System.Run with WithPlanCache).
	CacheInfo CacheInfo
	// Degraded records the serving path's fallback-ladder steps, in
	// order, when the run was served in degraded mode — e.g.
	// "optimizer: TD-CMD failed (budget), retried with TD-CMDP" or
	// "plan cache: lookup failed, bypassed". Empty on a clean run.
	Degraded []string
	// Failovers counts node operations this run served via failover —
	// scans answered from replicas of a dead node's fragment, scatter
	// partitions re-homed off a dead node. 0 on a healthy run; every
	// failover also appends a Degraded note.
	Failovers int64
	// Returned counts the distinct result rows the call delivered.
	// Equal to len(Rows) on a materializing Run; on a streamed call
	// Rows stays nil and Returned is the stream's delivered row count
	// (final once the stream ended).
	Returned int64
	// flatRows is the root operator's output size: the number of flat
	// rows the home nodes emitted before the stream's deduplication and
	// projection.
	flatRows int64
}

// FlatRowCount returns the row count of the root operator's distributed
// output, before the stream's deduplication and projection: the rows
// the nodes emitted, each answer once from its home node where the
// placement names one (see ExecuteStream); the gap between it and
// RowCount is what deduplication and projection removed. On a stream
// it counts the nodes whose root step ran, final once the stream ended.
func (r *Result) FlatRowCount() int64 { return r.flatRows }

// RowCount returns the number of distinct result rows the call
// delivered, whether they were materialized (Rows) or streamed
// (Returned). Logs and summaries report this — not len(Rows), which
// is zero for a streamed result.
func (r *Result) RowCount() int64 {
	if r.Rows != nil {
		return int64(len(r.Rows))
	}
	return r.Returned
}

// ShuffledRows returns the run's total cross-node row movement — what
// the slow-query log records without needing a trace sink.
func (r *Result) ShuffledRows() int64 { return r.Metrics.TransferredRows }

// ShuffledBytes returns the wire volume of ShuffledRows.
func (r *Result) ShuffledBytes() int64 { return r.Metrics.TransferredBytes }

// String summarizes the execution on one line.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows", r.RowCount())
	if r.Opt != nil {
		fmt.Fprintf(&b, " [%s cost=%.4g]", r.Opt.Used, r.Opt.Plan.Cost)
	}
	fmt.Fprintf(&b, " scanned=%d shuffled=%d rows/%d B joined=%d",
		r.Metrics.ScannedTriples, r.Metrics.TransferredRows, r.Metrics.TransferredBytes, r.Metrics.JoinedRows)
	if r.CacheInfo.Enabled {
		state := "miss"
		if r.CacheInfo.Hit {
			state = "hit"
		}
		if r.CacheInfo.Shared {
			state += "+shared"
		}
		fmt.Fprintf(&b, " cache=%s", state)
	}
	if len(r.Degraded) > 0 {
		fmt.Fprintf(&b, " DEGRADED[%s]", strings.Join(r.Degraded, "; "))
	}
	return b.String()
}

// ExecEnv carries the per-query resilience hooks of one execution.
// The zero value disables both: no memory accounting, no fault
// injection.
type ExecEnv struct {
	// Gauge, when non-nil, is charged for every relation the run
	// materializes (arena capacity, in bytes). A trip fails the run
	// with a typed *resilience.BudgetError naming the operator.
	Gauge *resilience.Gauge
	// Faults, when non-nil, arms deterministic fault injection at the
	// engine's sites (chaos tests only; nil in production).
	Faults *faultinject.Set
	// Snap is the store snapshot this execution reads. ExecuteEnv
	// captures it once at entry when nil, so a recovery round or
	// ingest commit swapping the engine's stores mid-query never gives
	// one query two views. A caller that must coordinate the engine
	// view with other pinned state (the serving path pins the dataset
	// snapshot, statistics epoch and store view together) captures
	// Engine.Snapshot() itself and passes it here.
	Snap *Snap
	// fo is the execution's node-failure memory (dead set + failover
	// count), created by ExecuteStream when the engine has a failover
	// policy. nil otherwise; all methods are nil-safe.
	fo *failoverState
}

// maxDeltaChunks bounds the broadcast-ingest delta chunk list: when a
// commit would exceed it, all chunks are merged into one store, so
// scans touch O(1) delta indexes regardless of how many commits have
// accumulated.
const maxDeltaChunks = 16

// Snap is one immutable view of the partitioned data: the per-node
// base stores, the per-node recovery overlays and the broadcast-ingest
// delta. Writers (recovery rounds, ingest commits) build a fresh
// snapshot and swap it in atomically; queries in flight keep the one
// they started with.
//
// Base stores hold the partitioning method's original fragments and
// are NEVER rebuilt: healthy scans read only them, so recovery never
// changes what a query on a healthy cluster costs. The copies a
// recovery round adds live in the overlays, which only failover reads
// consult — the one context where those copies are useful (each is a
// duplicate of a base triple a dead node holds).
//
// Triples ingested after the placement was computed live in the delta
// chunk stores, which are logically replicated to every node: scans
// match the delta once and surface its rows on all nodes, and the
// engine's set semantics (scatter/gather/root dedup) collapse the
// copies. Replication preserves the local-join guarantee only for
// methods that place a triple by its own endpoints (hash-so, un-1hop):
// there a match using a delta triple still lies whole on its anchor's
// home. Under 2f and 2fb a written edge x→y brings base triples around y
// into x's element, and x's home need not hold them, so such a match may
// be found off x's home or nowhere (2f and path-bmc lose such matches
// today). The root local join's home rule (see Snap.joinHome) is
// suspended for them while a delta exists, so it drops no match the join
// found.
type Snap struct {
	stores []*store
	// home is the placement's home function, deltaHomed whether it
	// survives the delta for local joins and homed the triple positions it
	// homes (partition.Placement.Home, DeltaHomed and Homed); home is nil
	// when the method has none.
	home       func(rdf.TermID) int
	deltaHomed bool
	homed      partition.Positions
	// overlays[node] indexes the recovery adds on node; nil when the
	// node has none (and the whole slice is nil before any recovery).
	overlays []*store
	// delta holds the broadcast-ingest chunk stores, oldest first.
	delta []*store
	// data is the dataset snapshot this store view was built from; the
	// serving path reads its epoch and statistics from here so one
	// atomic load pins everything consistently.
	data *rdf.Snapshot
}

// overlay returns node's recovery overlay, nil when it has none.
func (s *Snap) overlay(node int) *store {
	if s.overlays == nil {
		return nil
	}
	return s.overlays[node]
}

// joinHome returns the home function a root local join keeps its
// matches by: every match of a local join anchored at p.Anchor lies
// whole on the home of its anchor binding, so emitting it there only
// drops every cross-node copy and no match. nil when the join has no
// anchor, the placement no homes, or a delta the homes do not survive.
func (s *Snap) joinHome(p *plan.Node) func(rdf.TermID) int {
	if p.Anchor == "" || len(s.delta) > 0 && !s.deltaHomed {
		return nil
	}
	return s.home
}

// homedOn reports whether child c of a join holds every row keyed k on
// variable v on the home of k: a scan with v at a position the placement
// homes (the delta is on every node, so writes keep it so), or a local
// join anchored at v whose home rule holds (see joinHome).
func (s *Snap) homedOn(c *plan.Node, q *sparql.Query, v string) bool {
	if s.home == nil {
		return false
	}
	switch c.Alg {
	case plan.Scan:
		tp := q.Patterns[c.TP]
		return tp.S.IsVar() && tp.S.Value == v && s.homed.Has(partition.Subject) ||
			tp.O.IsVar() && tp.O.Value == v && s.homed.Has(partition.Object)
	case plan.LocalJoin:
		return c.Anchor == v && s.joinHome(c) != nil
	}
	return false
}

// Data returns the dataset snapshot this store view corresponds to
// (nil when the engine was built without SetData).
func (s *Snap) Data() *rdf.Snapshot { return s.data }

// DeltaLen returns the number of broadcast-ingested triples in the
// view.
func (s *Snap) DeltaLen() int {
	n := 0
	for _, st := range s.delta {
		n += len(st.spo)
	}
	return n
}

// Engine executes plans over a partitioned dataset, one goroutine per
// simulated computing node that has rows to handle (see fanOut). The
// operators of a plan run one after another, in plan order, on the
// calling goroutine.
type Engine struct {
	dict *rdf.Dict
	// mu serializes snapshot swaps (recovery rounds, ingest commits,
	// SetData); readers load snap without it.
	mu sync.Mutex
	// snap is the current store snapshot; swapped whole under mu,
	// never mutated in place.
	snap atomic.Pointer[Snap]
	// inst is the optional metrics bundle; nil disables recording.
	inst *Instruments
	// fo is the node-failover policy; nil disables the failover ladder
	// (node faults then fail queries immediately — see nodeGate).
	fo *FailoverPolicy
}

// New builds an engine over the placement produced by a partitioning
// method. The dictionary must be the one that encoded the triples.
func New(dict *rdf.Dict, placement *partition.Placement) *Engine {
	e := &Engine{dict: dict}
	e.snap.Store(&Snap{stores: buildStores(placement.Triples), home: placement.Home, deltaHomed: placement.DeltaHomed, homed: placement.Homed})
	return e
}

// buildStores sorts every node's fragment into its store, as many at a
// time as there are processors: the builds are independent, and sorting
// is the whole cost of opening an engine.
func buildStores(fragments [][]rdf.Triple) []*store {
	stores := make([]*store, len(fragments))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(fragments)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tmp []rdf.Triple // the worker's sort scratch, shared by its builds
			for i := int(next.Add(1)) - 1; i < len(fragments); i = int(next.Add(1)) - 1 {
				stores[i] = buildStore(fragments[i], &tmp)
			}
		}()
	}
	wg.Wait()
	return stores
}

// Snapshot returns the engine's current immutable store view. The
// serving path captures it once per query and passes it through
// ExecEnv.Snap, so the epoch, statistics and scans of one query all
// describe the same state.
func (e *Engine) Snapshot() *Snap { return e.snap.Load() }

// SetData attaches the dataset snapshot the current store view was
// built from (see Snap.Data). Called once at open; after that every
// epoch arrives through ApplyIngest.
func (e *Engine) SetData(data *rdf.Snapshot) { e.ApplyIngest(nil, data) }

// ApplyIngest folds one committed write delta into the engine:
// the new triples become a broadcast delta chunk (visible on every
// node; see Snap), and the attached dataset snapshot becomes the
// view's pinned data. Chunks are merged into one store once their
// count passes maxDeltaChunks, so scan overhead stays O(1) in commit
// count; the merge keeps the accumulated chunk's sorted permutations
// and merges the recent commits' into them, so its cost is linear in
// the delta. An empty delta (SetData's) only re-pins data.
// Queries in flight keep their captured snapshot — an ingest commit
// never blocks or tears a running query.
func (e *Engine) ApplyIngest(delta []rdf.Triple, data *rdf.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := *e.snap.Load()
	next.data = data
	switch {
	case len(delta) == 0:
	case len(next.delta) >= maxDeltaChunks:
		// The first chunk is the previous merge — everything but the last
		// few commits. Sort those together and merge the two runs.
		recent := append([]rdf.Triple{}, delta...)
		for _, st := range next.delta[1:] {
			recent = append(recent, st.spo...)
		}
		next.delta = []*store{mergeStores(next.delta[0], newStore(recent))}
	default:
		chunks := make([]*store, len(next.delta), len(next.delta)+1)
		copy(chunks, next.delta)
		next.delta = append(chunks, newStore(delta))
	}
	e.snap.Store(&next)
}

// View returns the snapshot's placement for recovery planning: the
// stores' own SPO arrays, nothing copied (see partition.View).
func (s *Snap) View() *partition.View {
	n := len(s.stores)
	v := &partition.View{Base: make([][]rdf.Triple, n), Overlay: make([][]rdf.Triple, n), Data: s.data}
	for node, st := range s.stores {
		v.Base[node] = st.spo
		if ov := s.overlay(node); ov != nil {
			v.Overlay[node] = ov.spo
		}
	}
	for _, st := range s.delta {
		v.Delta = append(v.Delta, st.spo)
	}
	return v
}

// ApplyMigration swaps in a new store snapshot with the migration's
// per-node adds indexed as overlays. from is the snapshot the migration
// was planned from; if another migration has replaced its overlays
// since, nothing is applied and an error is returned. Ingest commits
// since then are kept: they change only the delta, which no plan
// copies. The base stores are never rebuilt — healthy scans keep
// reading exactly the fragments the method placed; only failover
// reads consult the overlays. Touched nodes get a fresh overlay
// merging the previous one with the adds, which must be distinct and
// absent from the node's fragment and overlay, as partition.View plans
// them; untouched overlays are shared with the previous snapshot.
// Queries already executing keep their captured snapshot — the swap
// never blocks or tears an in-flight run.
func (e *Engine) ApplyMigration(from *Snap, m *partition.Migration) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.snap.Load()
	if !slices.Equal(old.overlays, from.overlays) {
		return errors.New("engine: the placement changed since the migration was planned")
	}
	if len(m.Adds) != len(old.stores) {
		return fmt.Errorf("engine: migration has %d node lists, the engine has %d nodes", len(m.Adds), len(old.stores))
	}
	overlays := make([]*store, len(old.stores))
	copy(overlays, old.overlays)
	for node, adds := range m.Adds {
		if len(adds) == 0 {
			continue
		}
		added := newStore(adds)
		if overlays[node] != nil {
			added = mergeStores(overlays[node], added)
		}
		overlays[node] = added
	}
	next := *old
	next.overlays = overlays
	e.snap.Store(&next)
	return nil
}

// Nodes returns the cluster size.
func (e *Engine) Nodes() int { return len(e.snap.Load().stores) }

// SetInstruments wires (or, with nil, unwires) the engine's metrics.
// It must not be called concurrently with Execute.
func (e *Engine) SetInstruments(inst *Instruments) { e.inst = inst }

// Execute runs the plan for q and returns the distinct results
// projected onto q's SELECT variables (all variables when SELECT *).
func (e *Engine) Execute(ctx context.Context, p *plan.Node, q *sparql.Query) (*Result, error) {
	return e.ExecuteEnv(ctx, p, q, ExecEnv{})
}

// ExecuteEnv is Execute with the query's resilience environment: a
// memory gauge charged by relation materialization and an optional
// fault-injection set. A panic anywhere in the execution — the calling
// goroutine or a per-node worker — is recovered into a typed
// *resilience.PanicError failing this query only.
//
// It is the materializing form of ExecuteStream: drain the stream into
// one arena (charged to the gauge as "flatten"), then sort — Rows is
// the distinct projected result in lexicographic order, as it always
// was.
func (e *Engine) ExecuteEnv(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv) (res *Result, err error) {
	defer resilience.CatchPanic(&err, e.inst.panicRecovered)
	st, err := e.ExecuteStream(ctx, p, q, env)
	if err != nil {
		return nil, err
	}
	out := newRelation(st.res.Vars, 0)
	for {
		rows, err := st.NextChunk(ctx)
		if err != nil {
			st.Finish()
			return nil, err
		}
		if rows == nil {
			break
		}
		for _, row := range rows {
			out.appendCopy(row)
		}
		if err := out.chargeTo(env.Gauge, "flatten"); err != nil {
			st.Finish()
			return nil, err
		}
	}
	out.sortRows()
	res = st.Result()
	res.Rows = out.Rows
	return res, nil
}

func projectResult(rel *Relation, q *sparql.Query) (*Result, error) {
	vars := q.Select
	if len(vars) == 0 {
		vars = q.Vars()
	}
	if err := validateVars(vars, rel.Vars); err != nil {
		return nil, err
	}
	proj := rel.project(vars)
	return &Result{Vars: proj.Vars, Rows: proj.Rows}, nil
}

// opGate is the prologue every operator evaluation passes: the
// cancellation poll and the injected-fault sites (slow operator,
// budget trip).
func (e *Engine) opGate(ctx context.Context, p *plan.Node, env ExecEnv) error {
	if err := obs.Canceled(ctx, "execute"); err != nil {
		return err
	}
	if d := env.Faults.Delay(faultinject.EngineSlow); d > 0 {
		// An injected slow operator must stay cancellable: a deadline
		// firing mid-stall aborts the query like any other timeout.
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return obs.Canceled(ctx, "execute")
		case <-t.C:
		}
	}
	if env.Faults.Should(faultinject.EngineBudget) {
		return &resilience.BudgetError{Site: opName(p.Alg), Requested: 1, Limit: env.Gauge.Used()}
	}
	return nil
}

// operator is a plan operator opened for its per-node steps: its
// children have run and their rows have moved, and every node of its own
// has been gated, sized and, when down, failed over. What is left is
// each node's step — a scan's fragment read, a join's trie join — which
// eval fans out below the root and the stream runs node by node at the
// root (see flatEnum). tr is complete once the steps have run and work
// is settled: its Elapsed is the open's own time plus the time spent on
// steps, its row counts those of the steps that ran.
type operator struct {
	tr   *TraceNode
	work nodeWork
	// vars are the variables of every node's output.
	vars []string
	// busy[node] reports whether the node's step has work, as the sizes
	// known at open tell (see TraceNode.BusyNodes).
	busy []bool
}

// nodeWork is an operator's per-node step: a scan's fragment read
// (scanLeaf) or a join's trie join (openedJoin). settle closes the
// operator's accounting once no step will run any more. Steps of
// different nodes may run at once.
type nodeWork interface {
	step(ctx context.Context, node int) (*Relation, error)
	settle()
}

// open opens p, the plan's root and every operator below it alike: it
// gates p, evaluates p's children and moves their rows, gates and sizes
// every node and runs the failover reads of down nodes, but performs no
// node's step. A non-nil root makes p the plan's root, which the stream
// reads (see rootOut).
func (e *Engine) open(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, root *rootOut) (*operator, error) {
	if err := e.opGate(ctx, p, env); err != nil {
		return nil, err
	}
	tr := newTrace(p)
	start := time.Now()
	var op *operator
	var err error
	switch p.Alg {
	case plan.Scan:
		op, err = e.scan(ctx, p, q, env, tr, root)
	case plan.LocalJoin, plan.BroadcastJoin, plan.RepartitionJoin:
		op, err = e.openJoin(ctx, p, q, env, tr, &start, root)
	default:
		err = fmt.Errorf("engine: unknown operator %v", p.Alg)
	}
	if err != nil {
		return nil, err
	}
	tr.Nodes = len(op.busy)
	for _, busy := range op.busy {
		if busy {
			tr.BusyNodes++
		}
	}
	tr.Elapsed = time.Since(start)
	return op, nil
}

// eval executes p below the plan's root and returns one relation per
// node (the distributed intermediate result of paper §II-D) plus the
// operator's trace: open, then every node's step. lazy lets a Scan child
// of a local or broadcast join leave its reads to the parent's join: the
// open leaf is returned instead, its relations holding the failover
// reads of down nodes and nil elsewhere, and the parent settles the
// leaf's accounting when its join is done (see scanLeaf). A pattern that
// repeats a variable filters its candidates, so its sizes at open are
// bounds, and it is read here.
func (e *Engine) eval(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, lazy bool) ([]*Relation, *scanLeaf, *TraceNode, error) {
	op, err := e.open(ctx, p, q, env, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	var out []*Relation
	leaf, _ := op.work.(*scanLeaf)
	if leaf != nil && lazy && !leaf.bp.repeated {
		out = leaf.rels
		for _, size := range leaf.size {
			op.tr.recordNode(size)
		}
	} else {
		leaf = nil
		if out, err = e.steps(ctx, op.work, op.busy); err != nil {
			return nil, nil, nil, err
		}
		op.work.settle()
		op.tr.record(out)
	}
	op.tr.Elapsed += time.Since(start)
	if e.inst != nil {
		e.inst.recordOp(p.Alg, op.tr.Elapsed, op.tr.OutputRows)
	}
	return out, leaf, op.tr, nil
}

// steps runs every node's step of work through fanOut and returns the
// nodes' outputs.
func (e *Engine) steps(ctx context.Context, work nodeWork, busy []bool) ([]*Relation, error) {
	out := make([]*Relation, len(busy))
	err := e.fanOut(busy, func(node int) (err error) {
		out[node], err = work.step(ctx, node)
		return err
	})
	return out, err
}

// fanOut runs f once for every simulated computing node and returns the
// lowest-numbered node's error, deterministically. Work runs where the
// data is: busy[node] — read off sizes the operator already holds —
// says whether the node has rows to handle. A node without any runs on
// the calling goroutine, and so does the first busy one; every
// other busy node gets a goroutine of its own, so a point read whose
// matches live on one node starts none. A panic in f is recovered on
// whichever goroutine ran it into a typed *resilience.PanicError
// attributed to the node, so a poisoned operator fails its query, never
// the process.
func (e *Engine) fanOut(busy []bool, f func(node int) error) error {
	errs := make([]error, len(busy))
	run := func(node int) {
		defer resilience.CatchPanic(&errs[node], e.inst.panicRecovered)
		errs[node] = f(node)
	}
	var wg sync.WaitGroup
	first := -1
	for node, b := range busy {
		switch {
		case !b:
			run(node)
		case first < 0:
			first = node
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(node)
			}()
		}
	}
	if first >= 0 {
		run(first)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// joinInputs evaluates p's children in plan order, attaching their
// traces to tr, and performs the operator's data movement — nothing for
// a local join (partitioning guarantees every complete match is
// co-located, Definition 2), gather+replicate of the k−1 smaller inputs
// for broadcast, a hash scatter on the join variable for repartition —
// returning per node the list of relations that node's join consumes.
// Transfer accounting lands in the operator's trace tr. Every input that
// moves arrives deduplicated and sorted on the join variable: a
// broadcast's gathered inputs are sorted once and shared read-only by
// every node (or split among the nodes, below), and a scatter's buckets
// are sorted as they are
// deduplicated. The operator's own-time clock start restarts once the
// children have run, so an operator's own time never includes its
// children's.
//
// A broadcast whose largest input is homed on the join variable (see
// Snap.homedOn) is homed: every row of that input keyed k is on Home(k),
// so each small row ships to its key's home alone, one moved row per
// row, instead of to all n nodes. A counting pass splits each gathered
// input by its keys' homes; the parts share its rows and stay sorted.
// Node i then joins only the keys homed at i, and is busy only where
// every input has rows there.
//
// The Scan children of a local join and the Scan child a broadcast join
// leaves in place are opened but not read: they come back in leaves,
// with nil relations on the nodes still unread, for the join to read or
// merge (see sortedJoin). A child that has to move is read in full
// first, through the same step fan-out as eval, so data movement is
// what it always was.
func (e *Engine) joinInputs(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, tr *TraceNode, start *time.Time) (opInputs, error) {
	var in opInputs
	children := make([][]*Relation, len(p.Children))
	leaves := make([]*scanLeaf, len(p.Children))
	// sizes[i] is child i's cluster-wide row count, as its trace records
	// it; a leaf handed over unread knows it without having read a row.
	sizes := make([]int64, len(p.Children))
	for i, c := range p.Children {
		rels, leaf, ctr, err := e.eval(ctx, c, q, env, p.Alg != plan.RepartitionJoin)
		if err != nil {
			return in, err
		}
		children[i], leaves[i], sizes[i] = rels, leaf, ctr.OutputRows
		tr.Children = append(tr.Children, ctr)
	}
	*start = time.Now()
	n := len(env.Snap.stores)
	inputs := make([][]*Relation, n)
	switch p.Alg {
	case plan.LocalJoin:
		for node := 0; node < n; node++ {
			rels := make([]*Relation, len(children))
			for i := range children {
				rels[i] = children[i][node]
			}
			inputs[node] = rels
		}
		in.leaves, in.sizes = leaves, sizes
	case plan.BroadcastJoin:
		// Find the largest input by total row count.
		largest, largestSize := 0, int64(-1)
		cols := make([]int, len(children))
		for i := range children {
			if sizes[i] > largestSize {
				largest, largestSize = i, sizes[i]
			}
			if cols[i] = slices.Index(inputVars(children[i][0], leaves[i]), p.JoinVar); cols[i] < 0 {
				return in, fmt.Errorf("engine: broadcast variable ?%s missing from input %d", p.JoinVar, i)
			}
		}
		in.homed = env.Snap.homedOn(p.Children[largest], q, p.JoinVar)
		tr.Homed = in.homed
		// Gather each small input, then deduplicate it by sorting it on the
		// join column (replicated fragments may hold the same row on
		// several nodes). The join sees the largest input first, then the
		// shipped ones — each present in full on every node, or split by
		// its keys' homes when the broadcast is homed.
		small := make([][]*Relation, 0, len(children)-1) // [input][node]
		in.leaves = make([]*scanLeaf, len(children))
		in.leaves[0] = leaves[largest]
		in.sizes = append(make([]int64, 0, len(children)), sizes[largest])
		for i, frags := range children {
			if i == largest {
				continue
			}
			if l := leaves[i]; l != nil {
				// A leaf that ships is needed whole.
				var err error
				if frags, err = e.steps(ctx, l, l.busy); err != nil {
					return in, err
				}
				l.settle()
			}
			// The gather shares the fragments' row storage; no arena copy.
			g := &Relation{Vars: frags[0].Vars, Rows: make([][]rdf.TermID, 0, sizes[i])}
			for _, f := range frags {
				g.Rows = append(g.Rows, f.Rows...)
			}
			g.dedupOn(cols[i])
			// Every row ships to every node, or to its key's home alone.
			var parts []*Relation
			moved := int64(len(g.Rows))
			if in.homed {
				parts = splitByHome(g, env.Snap.home, n)
			} else {
				for range n {
					parts = append(parts, g)
				}
				moved *= int64(n)
			}
			tr.TransferredRows += moved
			tr.TransferredBytes += moved * termIDBytes * int64(len(g.Vars))
			small = append(small, parts)
			in.sizes = append(in.sizes, moved)
		}
		for node := 0; node < n; node++ {
			rels := make([]*Relation, 0, len(children))
			rels = append(rels, children[largest][node])
			for _, parts := range small {
				rels = append(rels, parts[node])
			}
			inputs[node] = rels
		}
	case plan.RepartitionJoin:
		// Resolve the join column of every input before any scatter runs,
		// so a missing one fails the join before rows move. Rows arriving
		// at a node are deduplicated by scatter, collapsing replicas
		// shipped from different source nodes; each scatter polls ctx so
		// huge shuffles stay cancellable.
		cols := make([]int, len(children))
		for i, frags := range children {
			cols[i] = frags[0].colIndex(p.JoinVar)
			if cols[i] < 0 {
				return in, fmt.Errorf("engine: repartition variable ?%s missing from input %d", p.JoinVar, i)
			}
		}
		shuffled := make([][]*Relation, len(children)) // [child][node]
		for i := range children {
			var moved int64
			var err error
			if shuffled[i], moved, err = e.scatter(ctx, children[i], cols[i], env); err != nil {
				return in, err
			}
			tr.TransferredRows += moved
			tr.TransferredBytes += moved * termIDBytes * int64(len(children[i][0].Vars))
		}
		for node := 0; node < n; node++ {
			rels := make([]*Relation, len(children))
			for i := range children {
				rels[i] = shuffled[i][node]
			}
			inputs[node] = rels
		}
		in.leaves, in.sizes = leaves, sizes
	default:
		return in, fmt.Errorf("engine: unknown operator %v", p.Alg)
	}
	in.rels = inputs
	return in, nil
}

// splitByHome splits g, deduplicated on its join column (see
// Relation.dedupOn), into one part per node: the rows whose key is
// homed there, in g's order. A counting pass sizes the parts, which
// share g's rows and key column, so each stays sorted on the key and
// no row is copied.
func splitByHome(g *Relation, home func(rdf.TermID) int, n int) []*Relation {
	dst := make([]int32, len(g.keys))
	at := make([]int, n+1) // part d is [at[d], at[d+1]) once summed
	for i, k := range g.keys {
		if i == 0 || k != g.keys[i-1] {
			dst[i] = int32(home(k))
		} else {
			dst[i] = dst[i-1]
		}
		at[dst[i]+1]++
	}
	for d := range n {
		at[d+1] += at[d]
	}
	rows, keys := make([][]rdf.TermID, len(g.Rows)), make([]rdf.TermID, len(g.keys))
	next := slices.Clone(at[:n])
	for i, d := range dst {
		rows[next[d]], keys[next[d]] = g.Rows[i], g.keys[i]
		next[d]++
	}
	parts := make([]*Relation, n)
	for d := range parts {
		lo, hi := at[d], at[d+1]
		parts[d] = &Relation{Vars: g.Vars, Rows: rows[lo:hi:hi], keys: keys[lo:hi:hi], sortedOn: g.sortedOn}
	}
	return parts
}

// inputVars returns an input's variables: its scan leaf's, or those of
// its relation on node 0.
func inputVars(rel *Relation, leaf *scanLeaf) []string {
	if leaf != nil {
		return leaf.bp.vars
	}
	return rel.Vars
}

// opInputs is what a join operator's per-node joins consume, input by
// input in one order on every node: rels[node] are the node's input
// relations, nil where leaves holds the input's scan leaf and that
// node's read has not been performed; sizes are the inputs' cluster-
// wide row counts.
type opInputs struct {
	rels   [][]*Relation
	leaves []*scanLeaf
	sizes  []int64
	// homed marks a homed broadcast: each node holds the small rows keyed
	// on its homes alone (see joinInputs).
	homed bool
}

// openedJoin is a join operator whose per-node inputs are in place: its
// step joins one node's (see nodeWork).
type openedJoin struct {
	join *sortedJoin
	in   opInputs
	env  ExecEnv
	site string
}

// openJoin evaluates p's children and moves their rows (joinInputs) and
// plans the trie join (sortedJoin) that every node runs; a node where
// some input is empty joins nothing. A local join intersects its inputs
// on every variable two of them share (joinOrder); a broadcast or
// repartition join on its one join variable. A non-nil root makes p the
// plan's root: the join emits only the projected columns, and a root
// local join with an anchor keeps each match on its anchor's home (see
// Snap.joinHome). A repartition root and a homed broadcast root emit
// each match on one node, the one its join key names.
func (e *Engine) openJoin(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, tr *TraceNode, start *time.Time, root *rootOut) (*operator, error) {
	in, err := e.joinInputs(ctx, p, q, env, tr, start)
	if err != nil {
		return nil, err
	}
	vars := make([][]string, len(in.sizes))
	for i, r := range in.rels[0] {
		vars[i] = inputVars(r, in.leaves[i])
	}
	order := []string{p.JoinVar}
	if p.Alg == plan.LocalJoin {
		order = joinOrder(vars, in.sizes)
	}
	join := newSortedJoin(vars, in.sizes, in.leaves, order)
	if root != nil {
		if root.sets, err = join.project(root.vars); err != nil {
			return nil, err
		}
		switch p.Alg {
		case plan.RepartitionJoin:
			// Every row on a node was routed there by its join key.
			root.keyedOn(p.JoinVar)
		case plan.BroadcastJoin:
			// A homed broadcast's small rows are on their keys' homes only.
			if in.homed {
				root.keyedOn(p.JoinVar)
			}
		case plan.LocalJoin:
			if home := env.Snap.joinHome(p); home != nil && join.homeOn(p.Anchor, home) {
				root.keyedOn(p.Anchor)
			}
		}
	}
	op := &operator{tr: tr, vars: join.vars(), busy: make([]bool, len(in.rels))}
	op.work = &openedJoin{join: join, in: in, env: env, site: opName(p.Alg)}
	for node, rels := range in.rels {
		op.busy[node] = join.rowsOn(node, rels) > 0
	}
	return op, nil
}

// step joins node's inputs.
func (j *openedJoin) step(ctx context.Context, node int) (*Relation, error) {
	j.env.Faults.PanicIf(faultinject.EnginePanic)
	return j.join.join(ctx, j.env.Gauge, j.site, node, j.in.rels[node])
}

// settle closes the accounting of the leaves the join was handed: it
// was their last reader.
func (j *openedJoin) settle() {
	for _, l := range j.in.leaves {
		if l != nil {
			l.settle()
		}
	}
}

// scatter hashes one input's rows to their destination nodes. A first
// counting pass sizes each bucket's arena exactly, the second copies
// rows; every bucket is deduplicated by sorting it on the join column,
// so it reaches the join in key order. Bucket arenas
// are charged to the query's gauge before the copy, so a shuffle that
// would blow the budget fails before materializing.
func (e *Engine) scatter(ctx context.Context, frags []*Relation, col int, env ExecEnv) ([]*Relation, int64, error) {
	n := len(env.Snap.stores)
	// Offer each destination node its partition. A dead node's bucket is
	// pure computation over rows already fetched from live nodes, so any
	// healthy worker re-homes it — the failover is recorded and the
	// shuffle proceeds unchanged, bit-identical to the healthy run.
	for node := 0; node < n; node++ {
		down, err := e.nodeGate(ctx, node, "shuffle", env)
		if err != nil {
			return nil, 0, err
		}
		if down {
			env.fo.recordFailover()
		}
	}
	counts := make([]int, n)
	for _, f := range frags {
		for _, row := range f.Rows {
			counts[int(uint64(row[col])%uint64(n))]++
		}
	}
	buckets := make([]*Relation, n)
	for b := range buckets {
		buckets[b] = newRelation(frags[0].Vars, counts[b])
		if err := buckets[b].chargeTo(env.Gauge, "shuffle"); err != nil {
			return nil, 0, err
		}
	}
	var moved int64
	ops := 0
	for src, f := range frags {
		for _, row := range f.Rows {
			if ops++; ops&(cancelEvery-1) == 0 {
				if err := obs.Canceled(ctx, "shuffle"); err != nil {
					return nil, 0, err
				}
			}
			dst := int(uint64(row[col]) % uint64(n))
			buckets[dst].appendCopy(row)
			if dst != src {
				moved++
			}
		}
	}
	for b := range buckets {
		buckets[b].dedupOn(col)
	}
	return buckets, moved, nil
}

// Reference executes q on a single node over the full dataset by
// folding pattern matches left to right — the ground truth the
// distributed engine is tested against.
func Reference(ds *rdf.Dataset, q *sparql.Query) (*Result, error) {
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("engine: empty query")
	}
	ctx := context.Background()
	snap := ds.Snapshot()
	st := newStore(snap.Triples())
	var cur *Relation
	for _, tp := range q.Patterns {
		bp := bindPattern(snap.Dict(), tp)
		rel := &Relation{Vars: bp.vars}
		st.match(&bp, keepAll, 0, nil, rel)
		if cur == nil {
			cur = rel
		} else {
			var err error
			cur, err = hashJoin(ctx, cur, rel)
			if err != nil {
				return nil, err
			}
		}
	}
	flat := int64(len(cur.Rows))
	cur.dedup()
	out, err := projectResult(cur, q)
	if err != nil {
		return nil, err
	}
	out.flatRows = flat
	return out, nil
}
