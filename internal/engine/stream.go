// Chunked result emission. ExecuteStream is the streaming twin of
// ExecuteEnv: the plan evaluates exactly as before (same operators,
// same shuffles, same metrics), but the root operator runs node by node
// as the consumer pulls. The root is opened like every operator (open:
// children, data movement, every node's gate and sizing, the failover
// reads of down nodes) before ExecuteStream returns; the root's own
// per-node step (a root scan's fragment read, a root join's trie join)
// runs in NextChunk when the enumeration reaches that node, in node
// order, on the consumer's goroutine, with at most one busy node's step
// started ahead on a goroutine of its own (see flatEnum). A chunk holds
// one node's rows, and the node's arena is released when the
// enumeration moves on, so the first rows leave before the other nodes'
// root work runs and the resident state of a stream is one chunk, the
// seen-set and at most two nodes' root arenas.
//
// Each answer leaves once, from its home node, wherever the placement
// can name one: a root scan emits a row only on its subject's home, a
// root local join a match only on its anchor's home, a homed broadcast
// root a match only on its join key's home (its small rows went there
// alone), and a root join whose projection drops a column emits only
// the projected ones, probing the inputs the projection does not need
// (see rootOut, Snap.joinHome, Snap.homedOn, sortedJoin.project). Such a
// root hands the stream no copy, and the stream keeps no seen-set (see
// dedupFree).
//
// Where copies remain — a broadcast root whose largest input is not
// homed on the join variable, a placement without homes, a projection
// that drops an enumerated column — distinctness across chunks is
// exact. Emitted chunks are recycled, so the stream keeps its
// own copy of every distinct row it has emitted in a rowSet — an
// open-addressing table of row indices over one append-only TermID
// arena — and verifies every hash candidate against the stored row,
// exactly as the materializing path's hash-plus-row-compare does. A
// distinct row costs its 4·width payload bytes plus 8–16 bytes of table
// slots (load factor ¼–½), before the slack of the arena's geometric
// growth; the set is charged to the query's memory gauge at its
// allocated size.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// streamChunkRows is the most rows one chunk holds. Large enough to
// amortize per-chunk overhead (gauge math, HTTP flushes), small enough
// that a streamed query's resident output is a few tens of KB. The chunk
// grows to the largest node's output when that is smaller, so a result
// of a few rows pays for a few rows.
const streamChunkRows = 1024

// dedupChargeStep batches seen-set gauge reservations so the hot loop
// does not hit the shared budget atomics on every insert.
const dedupChargeStep = 64 * 1024

// flatEnum enumerates the projection of the root's per-node outputs,
// in node order then row order — the deterministic gather order of the
// materializing path. It obtains a node's output when it reaches the
// node and releases the node's arena from the gauge when it leaves it.
// The first busy node's step runs alone, so the first rows leave before
// any other node's root work runs; from the second on, each busy node's
// step runs while the next busy node's runs ahead on a goroutine of its
// own, so the root's work keeps two cores busy and at most two root
// arenas are resident. The returned slice is a scratch buffer valid
// only until the next call; nil marks the end. Cancellation polling
// and deduplication belong to the Stream driving it.
type flatEnum struct {
	root    *operator
	inst    *Instruments
	gauge   *resilience.Gauge
	cols    []int
	scratch []rdf.TermID
	part    *Relation // the current node's output, nil between nodes
	node    int       // the next node to enumerate
	ri      int
	ahead   *aheadStep // the step running ahead, nil when none is
	paired  bool       // whether busy nodes' steps run in pairs yet
}

func (e *flatEnum) next(ctx context.Context) ([]rdf.TermID, error) {
	for e.part == nil || e.ri >= len(e.part.Rows) {
		e.release()
		if e.node == len(e.root.busy) {
			return nil, nil
		}
		part, err := e.step(ctx, e.node)
		if err != nil {
			return nil, err
		}
		e.part, e.node, e.ri = part, e.node+1, 0
	}
	row := e.part.Rows[e.ri]
	e.ri++
	for i, c := range e.cols {
		e.scratch[i] = row[c]
	}
	return e.scratch, nil
}

// step returns node's root output: the step running ahead if it is
// node's, else one run now, which on a busy node past the first starts
// the next busy node's step ahead first.
func (e *flatEnum) step(ctx context.Context, node int) (*Relation, error) {
	if a := e.ahead; a != nil && a.node == node {
		e.ahead = nil
		return e.wait(a)
	}
	if e.root.busy[node] {
		if next := e.nextBusy(node); e.paired && next >= 0 {
			e.ahead = e.start(ctx, next)
		}
		e.paired = true
	}
	return e.run(ctx, node)
}

// run performs node's step now, timing it and counting its rows into
// the root's trace.
func (e *flatEnum) run(ctx context.Context, node int) (*Relation, error) {
	start := time.Now()
	rel, err := e.root.work.step(ctx, node)
	return e.record(rel, err, start)
}

// aheadStep is a root step running on a goroutine of its own.
type aheadStep struct {
	node int
	rel  *Relation
	err  error
	done chan struct{}
}

// start performs node's step on a goroutine of its own. A panic in it
// is recovered into a typed *resilience.PanicError, as in fanOut.
func (e *flatEnum) start(ctx context.Context, node int) *aheadStep {
	a := &aheadStep{node: node, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer resilience.CatchPanic(&a.err, e.inst.panicRecovered)
		a.rel, a.err = e.root.work.step(ctx, node)
	}()
	return a
}

// wait returns the step start began, timing the wait for it and
// counting its rows into the root's trace.
func (e *flatEnum) wait(a *aheadStep) (*Relation, error) {
	start := time.Now()
	<-a.done
	return e.record(a.rel, a.err, start)
}

func (e *flatEnum) record(rel *Relation, err error, since time.Time) (*Relation, error) {
	e.root.tr.Elapsed += time.Since(since)
	if err != nil {
		return nil, err
	}
	e.root.tr.recordNode(len(rel.Rows))
	return rel, nil
}

// nextBusy returns the first busy node after node, -1 when none is.
func (e *flatEnum) nextBusy(node int) int {
	for next := node + 1; next < len(e.root.busy); next++ {
		if e.root.busy[next] {
			return next
		}
	}
	return -1
}

// left returns how many of the current node's rows the enumeration has
// not returned yet, counting the last one returned.
func (e *flatEnum) left() int { return len(e.part.Rows) - e.ri + 1 }

// between reports whether the enumeration has used up the current
// node's rows and has not yet obtained the next node's.
func (e *flatEnum) between() bool {
	return e.part == nil || e.ri == len(e.part.Rows)
}

// release returns the current node's arena to the gauge.
func (e *flatEnum) release() {
	if e.part != nil {
		e.gauge.Release(e.part.charged)
		e.part = nil
	}
}

// close joins the step running ahead, if any — its work counts as the
// work that ran — and returns every arena the enumeration holds.
func (e *flatEnum) close() {
	e.release()
	if a := e.ahead; a != nil {
		e.ahead = nil
		if rel, err := e.wait(a); err == nil {
			e.gauge.Release(rel.charged)
		}
	}
}

// rowSet is an exact set of fixed-width rows that remembers insertion
// order: distinct rows sit back to back in one append-only arena, and an
// open-addressing table (linear probing, power-of-two size, load ≤ ½)
// maps a row's hash to its index in the arena. Every probe hit is
// verified with equalRows, so the hash affects only speed — it is a
// constructor parameter so the tests can force every row to collide.
type rowSet struct {
	width int
	hash  func([]rdf.TermID) uint64
	arena []rdf.TermID // row i is arena[i*width : (i+1)*width]
	slots []uint32     // 0 = empty, else row index + 1
	n     uint32
}

// rowSetMinSlots keeps an empty set at 64 bytes, so a point read that
// dedups a handful of rows pays for no more than that.
const rowSetMinSlots = 16

func newRowSet(width int, hash func([]rdf.TermID) uint64) *rowSet {
	return &rowSet{width: width, hash: hash, slots: make([]uint32, rowSetMinSlots)}
}

// add inserts row unless an identical row is already present and
// reports whether it was new.
func (s *rowSet) add(row []rdf.TermID) bool {
	mask := uint64(len(s.slots) - 1)
	i := s.hash(row) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		at := int(s.slots[i]-1) * s.width
		if equalRows(s.arena[at:at+s.width], row) {
			return false
		}
	}
	if s.n == math.MaxUint32 {
		// Slots hold a row index plus one in 32 bits. The arena of such
		// a set is ≥16 GB, so a memory budget trips long before this.
		panic("engine: streaming seen-set holds 2^32-1 distinct rows")
	}
	if need := len(s.arena) + s.width; need > cap(s.arena) {
		// Double explicitly: append alone grows large slices by ~1.25x
		// (see Relation.grow).
		grown := make([]rdf.TermID, len(s.arena), max(2*cap(s.arena), 8*s.width))
		copy(grown, s.arena)
		s.arena = grown
	}
	s.arena = append(s.arena, row...)
	s.n++
	s.slots[i] = s.n
	if 2*int(s.n) > len(s.slots) {
		s.rehash(2 * len(s.slots))
	}
	return true
}

// rehash rebuilds the table at size slots. The stored rows are distinct
// by construction, so re-insertion compares nothing.
func (s *rowSet) rehash(size int) {
	s.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for r := uint32(0); r < s.n; r++ {
		at := int(r) * s.width
		i := s.hash(s.arena[at:at+s.width]) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = r + 1
	}
}

// bytes is the set's allocated footprint: arena capacity plus table.
func (s *rowSet) bytes() int64 {
	return int64(cap(s.arena))*termIDBytes + int64(len(s.slots))*4
}

// rootOut is the stream's contract with the plan's root operator: the
// variables the query projects, and what the operator reports back
// about the rows it emitted.
type rootOut struct {
	vars []string
	// sets reports that each node's output holds a projected row at most
	// once; disjoint, that no projected row is emitted on two nodes.
	sets, disjoint bool
}

// scanned records a root scan's report: its nodes' reads are sets, which
// the projection keeps when it drops no column, and a home read (homed)
// emits a row only on its subject's home.
func (r *rootOut) scanned(bp *boundPattern, homed bool) {
	r.sets = !slices.ContainsFunc(bp.vars, func(v string) bool { return !slices.Contains(r.vars, v) })
	r.disjoint = homed && (bp.sConst || slices.Contains(r.vars, bp.vars[bp.sVar]))
}

// keyedOn records that a root join emits every match on one node named
// by its binding of v: the projected rows are disjoint across nodes when
// they keep v.
func (r *rootOut) keyedOn(v string) {
	r.disjoint = slices.Contains(r.vars, v)
}

// dedupFree reports whether the root's gathered output is provably
// duplicate-free, letting the stream skip the seen-set entirely. Two
// duplicate sources exist: projection (dropping a column can identify
// previously distinct rows) and cross-node copies (partitioning methods
// place copies of a triple on several nodes, and a local join finds a
// match on every node that holds it whole). Each node's output is a set
// because natural joins of sets are sets (scans are sets — a node's
// base fragment and the delta are disjoint and each deduplicated — and
// scatter dedups each bucket), and the projection keeps it one when
// every column it drops is probed, never enumerated (see
// sortedJoin.project). Cross-node copies are impossible on a single
// node, and wherever each match is emitted on one node its binding of a
// key names, when the projection keeps the key:
//   - a repartition-join root: every input row on node i was routed (by
//     scatter) because its join-key hash lands on i;
//   - a homed broadcast root: every small row on node i was shipped
//     there because its join key is homed on i (see joinInputs);
//   - a home-filtered root scan: a row is emitted on its subject's home;
//   - a home-filtered root local join: a match on its anchor's home,
//     which holds it whole (Definition 2; see Snap.joinHome).
func dedupFree(nodes int, r *rootOut) bool {
	return r.sets && (nodes == 1 || r.disjoint)
}

// Stream is one execution's chunked row emission. It is single-
// consumer: NextChunk returns batches of distinct projected rows in
// the engine's deterministic emission order (node order, then
// enumeration order — NOT the sorted order ExecuteEnv returns), and
// the returned rows are valid only until the next NextChunk call (the
// chunk arena is recycled). Result returns the execution's statistics;
// they are complete once Finish has run.
type Stream struct {
	eng *Engine
	env ExecEnv
	res *Result
	src *flatEnum

	seen        *rowSet // nil on the dedup-free fast path
	seenCharged int64
	chunk       *Relation
	ops         int

	execStart time.Time
	done      bool
	finished  bool
}

// ExecuteStream runs the plan for q and returns a Stream over the
// distinct projected results. Everything below the root — child
// evaluation, data movement, every node's gate and sizing, the failover
// reads of down nodes — happens before ExecuteStream returns, so a
// fault there (a dead node whose fragment has no live copy, an injected
// budget trip or stall at an operator) fails it. The root's per-node
// steps, the dedup and the projection run in NextChunk. Metrics, trace
// and flat-row counts, once the stream has been drained and finished,
// are identical to ExecuteEnv's.
func (e *Engine) ExecuteStream(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv) (st *Stream, err error) {
	defer resilience.CatchPanic(&err, e.inst.panicRecovered)
	if env.Snap == nil {
		// Capture the store view once: every operator of this run reads
		// the same snapshot even if a recovery round or ingest commit swaps
		// e.snap mid-query.
		env.Snap = e.snap.Load()
	}
	if e.fo != nil && env.fo == nil {
		// Per-execution failure memory: which nodes this run declared
		// dead, and how many operations failed over because of it.
		env.fo = &failoverState{}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid plan: %w", err)
	}
	var execStart time.Time
	if e.inst != nil {
		execStart = time.Now()
	}
	vars := q.Select
	if len(vars) == 0 {
		vars = q.Vars()
	}
	vars = append([]string{}, vars...)
	out := &rootOut{vars: vars}
	root, err := e.open(ctx, p, q, env, out)
	if err != nil {
		return nil, err
	}
	if err := validateVars(vars, root.vars); err != nil {
		return nil, err
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = slices.Index(root.vars, v)
	}
	st = &Stream{eng: e, env: env, execStart: execStart}
	st.src = &flatEnum{root: root, inst: e.inst, gauge: env.Gauge, cols: cols, scratch: make([]rdf.TermID, len(vars))}
	st.res = &Result{Vars: vars, Trace: root.tr}
	// No root step fails over: the failover reads ran at open.
	st.res.Failovers, st.res.Degraded = env.fo.summary()
	if !dedupFree(len(env.Snap.stores), out) {
		st.seen = newRowSet(len(vars), hashRow)
	}
	st.chunk = newRelation(vars, 0)
	return st, nil
}

// validateVars checks that schema binds every projected variable.
func validateVars(vars, schema []string) error {
	for _, v := range vars {
		if !slices.Contains(schema, v) {
			return fmt.Errorf("engine: projected variable ?%s not bound by the query", v)
		}
	}
	return nil
}

// Vars names the stream's output columns.
func (s *Stream) Vars() []string { return s.res.Vars }

// NextChunk returns the next batch of distinct result rows, or nil at
// the end of the stream. A batch holds at most streamChunkRows rows, all
// from one node; the call runs that node's root step when it reaches
// the node (and the steps of the empty nodes before it). The rows (and
// their backing arena) are valid only until the following NextChunk
// call — consumers that retain rows must copy them. An error
// (cancellation, budget trip, recovered panic) ends the stream.
func (s *Stream) NextChunk(ctx context.Context) (rows [][]rdf.TermID, err error) {
	defer resilience.CatchPanic(&err, s.eng.inst.panicRecovered)
	if s.done {
		return nil, nil
	}
	// One upfront check per chunk keeps small streams responsive to
	// cancellation (a disconnected consumer stops within one call); the
	// in-loop poll below bounds the latency within huge results.
	if err := obs.Canceled(ctx, "flatten"); err != nil {
		return nil, err
	}
	s.chunk.Rows = s.chunk.Rows[:0]
	s.chunk.arena = s.chunk.arena[:0]
	for len(s.chunk.Rows) < streamChunkRows {
		if len(s.chunk.Rows) > 0 && s.src.between() {
			// A chunk ends with its node's rows: they leave before the next
			// node's root step runs, in the next call.
			break
		}
		row, err := s.src.next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			s.done = true
			break
		}
		if len(s.chunk.Rows) == 0 {
			// The chunk's node is known now: make room for its rows.
			s.chunk.reserve(min(s.src.left(), streamChunkRows))
		}
		if s.ops++; s.ops&(cancelEvery-1) == 0 {
			if err := obs.Canceled(ctx, "flatten"); err != nil {
				return nil, err
			}
		}
		if s.seen != nil {
			if !s.seen.add(row) {
				continue
			}
			if need := s.seen.bytes(); need-s.seenCharged >= dedupChargeStep {
				if err := s.env.Gauge.Reserve("dedup", need-s.seenCharged); err != nil {
					return nil, err
				}
				s.seenCharged = need
			}
		}
		s.chunk.appendCopy(row)
	}
	// The chunk arena is recycled across calls, so this charges only on
	// first fill (and the rare later growth): the stream's resident
	// output is one chunk, not the whole result.
	if err := s.chunk.chargeTo(s.env.Gauge, "stream"); err != nil {
		return nil, err
	}
	s.res.Returned += int64(len(s.chunk.Rows))
	if s.done {
		s.Finish()
	}
	if len(s.chunk.Rows) == 0 {
		return nil, nil
	}
	return s.chunk.Rows, nil
}

// Finish closes the root's accounting — its trace, the flat-row count,
// the metrics summed from the trace — and records the execution in the
// engine instruments. It runs automatically when the source drains;
// callers abandoning a stream early call it to record the work that did
// run. Idempotent.
func (s *Stream) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.src.close()
	root := s.src.root
	root.work.settle()
	s.res.flatRows = root.tr.OutputRows
	root.tr.addTo(&s.res.Metrics)
	if s.eng.inst != nil {
		s.eng.inst.recordOp(root.tr.Alg, root.tr.Elapsed, root.tr.OutputRows)
		s.eng.inst.recordExecute(time.Since(s.execStart), int(s.res.Returned), s.res.Metrics)
		s.eng.inst.recordFailovers(s.res.Failovers)
	}
}

// Result returns the execution's statistics result (Rows is nil — the
// rows went through NextChunk; Returned counts them). Vars, Failovers
// and Degraded are valid as soon as ExecuteStream returns; Metrics,
// Trace, FlatRowCount, Returned and the instruments are complete once
// Finish has run, which a drained stream does on its own.
func (s *Stream) Result() *Result { return s.res }
