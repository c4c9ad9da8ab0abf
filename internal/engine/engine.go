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

// Result is the outcome of a query execution.
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
// RowCount is what deduplication and projection removed.
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

// EnumeratedJoins is the number of join operators this run's own
// optimization enumerated — 0 on a plan-cache hit (no enumeration
// happened), the optimizer's CMD counter otherwise.
func (r *Result) EnumeratedJoins() int64 {
	if r.Opt == nil || r.CacheInfo.Hit {
		return 0
	}
	return r.Opt.Counter.CMDs
}

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
	// home is the placement's home function and deltaHomed whether it
	// survives the delta for local joins (partition.Placement.Home and
	// DeltaHomed); home is nil when the method has none.
	home       func(rdf.TermID) int
	deltaHomed bool
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
	e.snap.Store(&Snap{stores: buildStores(placement.Triples), home: placement.Home, deltaHomed: placement.DeltaHomed})
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
// epoch arrives through ApplyIngest, an epoch-only bump (a recovery
// round's) with an empty delta.
func (e *Engine) SetData(data *rdf.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := *e.snap.Load()
	next.data = data
	e.snap.Store(&next)
}

// ApplyIngest folds one committed write delta into the engine:
// the new triples become a broadcast delta chunk (visible on every
// node; see Snap), and the attached dataset snapshot becomes the
// view's pinned data. Chunks are merged into one store once their
// count passes maxDeltaChunks, so scan overhead stays O(1) in commit
// count; the merge keeps the accumulated chunk's sorted permutations
// and merges the recent commits' into them, so its cost is linear in
// the delta. An empty delta (an epoch-only bump) only re-pins data.
// Queries in flight keep their captured snapshot — an ingest commit
// never blocks or tears a running query.
func (e *Engine) ApplyIngest(delta []rdf.Triple, data *rdf.Snapshot) {
	if len(delta) == 0 {
		if data != nil {
			e.SetData(data)
		}
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.snap.Load()
	var chunks []*store
	if len(old.delta) >= maxDeltaChunks {
		// The first chunk is the previous merge — everything but the last
		// few commits. Sort those together and merge the two runs.
		recent := append([]rdf.Triple{}, delta...)
		for _, st := range old.delta[1:] {
			recent = append(recent, st.spo...)
		}
		chunks = []*store{mergeStores(old.delta[0], newStore(recent))}
	} else {
		chunks = make([]*store, len(old.delta), len(old.delta)+1)
		copy(chunks, old.delta)
		chunks = append(chunks, newStore(delta))
	}
	next := *old
	next.delta, next.data = chunks, data
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

// eval executes p and returns one relation per node (the distributed
// intermediate result of paper §II-D) plus the operator's trace. lazy
// lets a Scan child of a local or broadcast join leave its reads to the
// parent's join: the open leaf is returned with them, the relations of
// the nodes not read yet are nil, and the parent settles the leaf's
// accounting when its join is done (see scanLeaf). A non-nil root makes
// p the plan's root, which the stream reads (see rootOut).
func (e *Engine) eval(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, m *Metrics, lazy bool, root *rootOut) ([]*Relation, *scanLeaf, *TraceNode, error) {
	if err := e.opGate(ctx, p, env); err != nil {
		return nil, nil, nil, err
	}
	var out []*Relation
	var leaf *scanLeaf
	var err error
	tr := newTrace(p)
	start := time.Now()
	switch p.Alg {
	case plan.Scan:
		if leaf, err = e.scan(ctx, p, q, env, tr, lazy, root != nil); err == nil {
			out = leaf.rels
			tr.recordSizes(leaf.size)
			if root != nil {
				root.scanned(&leaf.bp, env.Snap.home != nil)
			}
			if !lazy {
				leaf.settle(m)
				leaf = nil
			}
		}
	case plan.LocalJoin, plan.BroadcastJoin, plan.RepartitionJoin:
		if out, err = e.joinOp(ctx, p, q, env, m, tr, &start, root); err == nil {
			tr.record(out)
		}
	default:
		err = fmt.Errorf("engine: unknown operator %v", p.Alg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	tr.Elapsed = time.Since(start)
	if e.inst != nil {
		e.inst.recordOp(p.Alg, tr.Elapsed, tr.OutputRows)
	}
	return out, leaf, tr, nil
}

// fanOut runs f once for every one of n simulated computing nodes and
// returns how many of them were busy and the lowest-numbered node's
// error, deterministically. Work runs where the data is: busy(node) —
// asked once per node, and answered from sizes the operator already
// holds — says whether the node has rows to handle. A node without any
// runs on the calling goroutine, and so does the first busy one; every
// other busy node gets a goroutine of its own, so a point read whose
// matches live on one node starts none. A panic in f is recovered on
// whichever goroutine ran it into a typed *resilience.PanicError
// attributed to the node, so a poisoned operator fails its query, never
// the process.
func (e *Engine) fanOut(n int, busy func(node int) bool, f func(node int) error) (int, error) {
	errs := make([]error, n)
	run := func(node int) {
		defer resilience.CatchPanic(&errs[node], e.inst.panicRecovered)
		errs[node] = f(node)
	}
	var wg sync.WaitGroup
	busyNodes, first := 0, -1
	for node := 0; node < n; node++ {
		switch {
		case !busy(node):
			run(node)
			continue
		case first < 0:
			first = node
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(node)
			}()
		}
		busyNodes++
	}
	if first >= 0 {
		run(first)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return busyNodes, err
		}
	}
	return busyNodes, nil
}

// evalChildren evaluates the children of p in plan order, attaching
// their traces to tr and restarting the parent's own-time clock, so an
// operator's own time never includes its children's. With lazy set,
// Scan children are opened lazily and come back in leaves (nil entries
// for the other children).
func (e *Engine) evalChildren(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, m *Metrics, tr *TraceNode, start *time.Time, lazy bool) ([][]*Relation, []*scanLeaf, error) {
	n := len(p.Children)
	children := make([][]*Relation, n)
	leaves := make([]*scanLeaf, n)
	for i, c := range p.Children {
		rels, leaf, ctr, err := e.eval(ctx, c, q, env, m, lazy, nil)
		if err != nil {
			return nil, nil, err
		}
		children[i], leaves[i] = rels, leaf
		tr.Children = append(tr.Children, ctr)
	}
	*start = time.Now()
	return children, leaves, nil
}

// joinInputs evaluates p's children and performs the operator's data
// movement — nothing for a local join (partitioning guarantees every
// complete match is co-located, Definition 2), gather+replicate of the
// k−1 smaller inputs for broadcast, a hash scatter on the join
// variable for repartition — returning per node the list of relations
// that node's join consumes. Transfer accounting lands in m and in the
// operator's trace tr. Every input that moves arrives deduplicated and
// sorted on the join variable: a broadcast's gathered inputs are sorted
// once and shared read-only by every node, and a scatter's buckets are
// sorted as they are deduplicated.
//
// The Scan children of a local join and the Scan child a broadcast join
// leaves in place are opened but not read: they come back in leaves,
// with nil relations on the nodes still unread, for the join to read
// or merge (see sortedJoin). A child that has to move
// is read in full first, so data movement is what it always was.
func (e *Engine) joinInputs(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, m *Metrics, tr *TraceNode, start *time.Time) (opInputs, error) {
	var in opInputs
	children, leaves, err := e.evalChildren(ctx, p, q, env, m, tr, start, p.Alg != plan.RepartitionJoin)
	if err != nil {
		return in, err
	}
	n := len(env.Snap.stores)
	// sizes[i] is child i's cluster-wide row count, as its trace just
	// recorded it; a lazily opened leaf knows it without having read a
	// row.
	sizes := make([]int64, len(children))
	for i := range children {
		sizes[i] = tr.Children[i].OutputRows
	}
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
		// Gather each small input, then deduplicate it by sorting it on the
		// join column (replicated fragments may hold the same row on
		// several nodes). The join sees the largest input first, then the
		// replicated ones — each present in full on every node.
		small := make([]*Relation, 0, len(children)-1)
		in.leaves = make([]*scanLeaf, len(children))
		in.leaves[0] = leaves[largest]
		in.sizes = append(make([]int64, 0, len(children)), sizes[largest])
		for i, frags := range children {
			if i == largest {
				continue
			}
			if leaves[i] != nil {
				// A leaf that ships is needed whole.
				if err := leaves[i].readAll(e); err != nil {
					return in, err
				}
				leaves[i].settle(m)
			}
			// The gather shares the fragments' row storage; no arena copy.
			g := &Relation{Vars: frags[0].Vars, Rows: make([][]rdf.TermID, 0, sizes[i])}
			for _, f := range frags {
				g.Rows = append(g.Rows, f.Rows...)
			}
			g.dedupOn(cols[i])
			// Every row ships to every node holding the largest input.
			moved := int64(len(g.Rows)) * int64(n)
			bytes := moved * termIDBytes * int64(len(g.Vars))
			m.TransferredRows += moved
			m.TransferredBytes += bytes
			tr.TransferredRows += moved
			tr.TransferredBytes += bytes
			small = append(small, g)
			in.sizes = append(in.sizes, moved)
		}
		for node := 0; node < n; node++ {
			rels := make([]*Relation, 0, len(children))
			rels = append(rels, children[largest][node])
			rels = append(rels, small...)
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
			bytes := moved * termIDBytes * int64(len(children[i][0].Vars))
			m.TransferredRows += moved
			m.TransferredBytes += bytes
			tr.TransferredRows += moved
			tr.TransferredBytes += bytes
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
}

// joinOp runs one k-way join operator: per-node inputs from joinInputs,
// then a trie join on every node (sortedJoin), materializing each node's
// result as a flat row arena. A local join intersects its inputs on
// every variable two of them share (joinOrder); a broadcast or
// repartition join on its one join variable. The root join emits only
// the projected columns, and a root local join with an anchor keeps each
// match on its anchor's home (see Snap.joinHome).
func (e *Engine) joinOp(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, m *Metrics, tr *TraceNode, start *time.Time, root *rootOut) ([]*Relation, error) {
	in, err := e.joinInputs(ctx, p, q, env, m, tr, start)
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
		case plan.LocalJoin:
			if home := env.Snap.joinHome(p); home != nil && join.homeOn(p.Anchor, home) {
				root.keyedOn(p.Anchor)
			}
		}
	}
	site := opName(p.Alg)
	out := make([]*Relation, len(env.Snap.stores))
	var joined int64
	// A node where some input is empty joins nothing.
	busy := func(node int) bool { return join.rowsOn(node, in.rels[node]) > 0 }
	tr.Nodes = len(out)
	tr.BusyNodes, err = e.fanOut(len(out), busy, func(node int) error {
		env.Faults.PanicIf(faultinject.EnginePanic)
		r, err := join.join(ctx, env.Gauge, site, node, in.rels[node])
		if err != nil {
			return err
		}
		out[node] = r
		atomic.AddInt64(&joined, int64(len(r.Rows)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The join was the last reader of the leaves it was handed.
	for _, l := range in.leaves {
		if l != nil {
			l.settle(m)
		}
	}
	m.JoinedRows += joined
	return out, nil
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
