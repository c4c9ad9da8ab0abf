// Chunked result emission. ExecuteStream is the streaming twin of
// ExecuteEnv: the plan evaluates exactly as before (same operators,
// same shuffles, same metrics), but the final gather/dedup/projection
// is demand-driven — the root's per-node row arenas are enumerated into
// fixed-size row chunks as the consumer pulls, instead of materializing
// one projected output arena.
//
// Each answer leaves once, from its home node, wherever the placement
// can name one: a root scan emits a row only on its subject's home, a
// root local join a match only on its anchor's home, and a root join
// whose projection drops a column emits only the projected ones,
// probing the inputs the projection does not need (see rootOut, Snap.joinHome, sortedJoin.project). Such a
// root hands the stream no copy, and the stream keeps no seen-set (see
// dedupFree).
//
// Where copies remain — a broadcast root, a placement without homes, a
// projection that drops an enumerated column — distinctness across
// chunks is exact. Emitted chunks are recycled, so the stream keeps its
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
// is allocated for the root's flat row count when that is smaller, so a
// result of a few rows pays for a few rows.
const streamChunkRows = 1024

// dedupChargeStep batches seen-set gauge reservations so the hot loop
// does not hit the shared budget atomics on every insert.
const dedupChargeStep = 64 * 1024

// flatEnum enumerates the projection of per-node flat relations, in
// node order then row order — the deterministic gather order of the
// materializing path. The returned slice is a scratch buffer valid only
// until the next call; nil marks the end. Enumeration is pure —
// cancellation polling and deduplication belong to the Stream driving
// it.
type flatEnum struct {
	parts   []*Relation
	cols    []int
	scratch []rdf.TermID
	pi, ri  int
}

func (e *flatEnum) next() []rdf.TermID {
	for e.pi < len(e.parts) {
		rows := e.parts[e.pi].Rows
		if e.ri >= len(rows) {
			e.pi++
			e.ri = 0
			continue
		}
		row := rows[e.ri]
		e.ri++
		for i, c := range e.cols {
			e.scratch[i] = row[c]
		}
		return e.scratch
	}
	return nil
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
// they are complete once NextChunk has returned nil.
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
// distinct projected results. All join work — child evaluation, data
// movement, the root join itself — happens before ExecuteStream
// returns; only the final gather/dedup/projection is deferred to
// NextChunk. Metrics, trace and flat-row counts are identical to
// ExecuteEnv's.
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
	st = &Stream{eng: e, env: env, execStart: execStart}
	var m Metrics
	root := &rootOut{vars: vars}
	parts, _, trace, err := e.eval(ctx, p, q, env, &m, false, root)
	if err != nil {
		return nil, err
	}
	schema := parts[0].Vars
	if err := validateVars(vars, schema); err != nil {
		return nil, err
	}
	var flat int64
	for _, r := range parts {
		flat += int64(len(r.Rows))
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = parts[0].colIndex(v)
	}
	st.src = &flatEnum{parts: parts, cols: cols, scratch: make([]rdf.TermID, len(vars))}
	st.res = &Result{Vars: vars, Metrics: m, Trace: trace, flatRows: flat}
	st.res.Failovers, st.res.Degraded = env.fo.summary()
	if !dedupFree(len(env.Snap.stores), root) {
		st.seen = newRowSet(len(vars), hashRow)
	}
	st.chunk = newRelation(vars, int(min(st.res.flatRows, streamChunkRows)))
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
// the end of the stream. The rows (and their backing arena) are valid
// only until the following NextChunk call — consumers that retain rows
// must copy them. An error (cancellation, budget trip, recovered
// panic) ends the stream.
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
		row := s.src.next()
		if row == nil {
			s.done = true
			break
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

// Finish records the execution in the engine instruments. It runs
// automatically when the source drains; callers abandoning a stream
// early call it to record what did happen. Idempotent.
func (s *Stream) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	if s.eng.inst != nil {
		s.eng.inst.recordExecute(time.Since(s.execStart), int(s.res.Returned), s.res.Metrics)
		s.eng.inst.recordFailovers(s.res.Failovers)
	}
}

// Result returns the execution's statistics result (Rows is nil — the
// rows went through NextChunk; Returned counts them). Metrics, trace
// and plan information are valid as soon as ExecuteStream returns;
// Returned and the instruments are final once the stream ended.
func (s *Stream) Result() *Result { return s.res }
