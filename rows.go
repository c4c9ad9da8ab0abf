package sparqlopt

// The streaming results API. RunStream is the primitive serving call:
// it plans (through every existing layer — admission, deadline, plan
// cache, degradation ladder, memory budget) and executes the query,
// but returns before the result is materialized: a *Rows cursor pulls
// distinct result rows on demand from the engine's chunked emission
// path, so a query's resident output is one chunk regardless of result
// size. Run is rebased on it — it is RunStream plus collect-and-sort —
// which makes the two paths bit-identical by construction.
//
// All per-call bookkeeping that used to live in defers around the old
// materializing pipeline (trace finish, metrics counters, slow-query
// log, admission release, memory-gauge reset, the recovery trigger) moves
// to the end of the stream: it runs when the cursor is exhausted,
// errors, or is Closed — exactly once.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// TermID is a dictionary-encoded RDF term (see System.Term).
type TermID = rdf.TermID

// TermClass is a term's kind and whether its text needs escaping, as
// the dictionary recorded it at intern time (see System.TermEntry).
type TermClass = rdf.TermClass

// Rows is a cursor over one query's result stream. It is
// single-consumer and must be Closed (Close is idempotent and safe
// after exhaustion):
//
//	rows, err := sys.RunStream(ctx, src)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())        // or rows.Scan(dst)
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Next yields distinct rows in the engine's deterministic emission
// order — NOT the lexicographically sorted order Run returns; sort the
// collected rows to compare (they are the same set). The slice Row
// returns is backed by a recycled chunk arena: it is valid only until
// the next Next call, so retain a copy, not the slice.
type Rows struct {
	sys *System
	ctx context.Context
	fin *finalizer
	st  *engine.Stream
	sp  *obs.Span // the open "execute" span; ended at finish

	limit     int64
	delivered int64

	chunk [][]rdf.TermID
	i     int
	row   []rdf.TermID

	err    error
	closed bool
}

// Vars names the stream's output columns.
func (r *Rows) Vars() []string { return r.st.Vars() }

// Next advances to the next result row, fetching the next chunk from
// the execution when the current one is drained. It returns false at
// the end of the stream or on error (check Err); the end of the stream
// finalizes the call (metrics, trace, admission slot, memory gauge).
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	if r.limit > 0 && r.delivered >= r.limit {
		// The cap is part of the call's contract (WithLimit): reaching
		// it is a clean end, not an error.
		r.finish(nil)
		return false
	}
	for {
		if r.i < len(r.chunk) {
			r.row = r.chunk[r.i]
			r.i++
			r.delivered++
			return true
		}
		chunk, err := r.st.NextChunk(r.ctx)
		if err != nil || chunk == nil {
			r.finish(err)
			return false
		}
		r.chunk, r.i = chunk, 0
	}
}

// Row returns the current row's dictionary-encoded terms. The slice is
// valid only until the next Next call; decode with System.Term or
// Scan, or copy to retain.
func (r *Rows) Row() []rdf.TermID { return r.row }

// Scan decodes the current row's terms into dst, which must hold
// len(Vars()) entries.
func (r *Rows) Scan(dst []string) error {
	if r.row == nil {
		return errors.New("sparqlopt: Scan called before Next")
	}
	if len(dst) < len(r.row) {
		return fmt.Errorf("sparqlopt: Scan destination holds %d of %d columns", len(dst), len(r.row))
	}
	for i, id := range r.row {
		dst[i] = r.sys.Term(id)
	}
	return nil
}

// Err returns the error that terminated iteration — nil while rows
// remain and after a clean end.
func (r *Rows) Err() error { return r.err }

// Close releases the call's resources (admission slot, memory gauge)
// and finalizes its observability. Closing an unexhausted cursor
// abandons the stream: what did happen is recorded. Idempotent;
// returns Err.
func (r *Rows) Close() error {
	r.finish(nil)
	return r.err
}

// Result returns the execution's statistics result — plan, metrics,
// trace, cache info, Returned — available once the stream has ended
// (nil before then). Rows is nil on it: the rows went through the
// cursor.
func (r *Rows) Result() *ExecResult {
	if !r.closed {
		return nil
	}
	return r.st.Result()
}

// finish ends the stream exactly once: the engine stream's statistics
// and the "execute" span, then the call-level finalizer.
func (r *Rows) finish(err error) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	r.st.Finish()
	res := r.st.Result()
	res.Returned = r.delivered
	r.sp.SetAttrInt("rows", r.delivered)
	r.sp.End()
	res.Trace.AttachSpans(r.sp)
	r.fin.finish(res, err)
}

// finalizer is one serving call's deferred bookkeeping, detached from
// the calling frame so it can run at stream end instead of function
// return.
type finalizer struct {
	s       *System
	set     opt.RunSettings
	src     string
	start   time.Time
	tr      *obs.Trace
	cancel  context.CancelFunc
	release func()
	g       *resilience.Gauge
	done    bool
}

// finish runs the call's epilogue exactly once. res may be nil only
// when err is non-nil.
func (f *finalizer) finish(res *ExecResult, err error) {
	if f.done {
		return
	}
	f.done = true
	f.tr.Finish(err)
	if f.s.obs != nil {
		d := time.Since(f.start)
		f.s.obs.queries.Inc()
		if err != nil {
			f.s.obs.queryErrors.Inc()
		}
		f.s.obs.querySeconds.ObserveDuration(d)
		if f.s.obs.slowLog != nil {
			e := obs.SlowQueryEntry{
				Time:      time.Now(),
				Query:     f.src,
				Algorithm: f.set.Algorithm.String(),
				Duration:  d,
				Phases:    f.tr.Phases(),
			}
			if err != nil {
				e.Err = err.Error()
				e.Rejected = errors.Is(err, resilience.ErrOverloaded)
			} else {
				e.Rows = int(res.RowCount())
				e.FlatRows = res.FlatRowCount()
				e.ShuffledRows = res.ShuffledRows()
				e.ShuffledBytes = res.ShuffledBytes()
				e.CacheHit = res.CacheInfo.Hit
				e.Degraded = res.Degraded
				e.Failovers = res.Failovers
			}
			f.s.obs.slowLog.Record(e)
		}
	}
	if f.set.TraceSink != nil {
		f.set.TraceSink(f.tr)
	}
	// Sustained node failure (an open breaker or a typed unavailable
	// failure) triggers recovery.
	f.s.startRecovery(err)
	if f.release != nil {
		f.release()
	}
	f.g.Reset()
	f.cancel()
}

// RunStream optimizes and executes a query, returning a row cursor
// instead of a materialized result — the streaming serving path. The
// full serving stack applies exactly as in Run (admission control,
// per-call deadline, plan cache, degradation ladder, memory budget,
// metrics, slow-query log); only the result emission differs: rows
// stream in the engine's deterministic order and the call's resident
// output is one chunk. The cursor must be Closed.
func (s *System) RunStream(ctx context.Context, query string, opts ...RunOption) (*Rows, error) {
	return s.stream(ctx, query, nil, opt.NewRunSettings(opts))
}

// RunStreamQuery is RunStream for an already-parsed query.
func (s *System) RunStreamQuery(ctx context.Context, q *Query, opts ...RunOption) (*Rows, error) {
	return s.stream(ctx, "", q, opt.NewRunSettings(opts))
}

// stream is the serving pipeline behind RunStream, Run and the HTTP
// endpoint. Exactly one of src and q is set by the caller. It admits,
// parses, pins the serving snapshot, plans down the degradation
// ladder and opens the engine's chunk stream. Everything after the
// returned cursor is the stream's problem: the finalizer runs at its
// end, not at this function's return.
func (s *System) stream(ctx context.Context, src string, q *Query, set opt.RunSettings) (*Rows, error) {
	ctx, cancel := withDeadline(ctx, set.Deadline)
	fin := &finalizer{s: s, set: set, cancel: cancel}
	if s.obs != nil || set.TraceSink != nil {
		fin.start = time.Now()
		if set.TraceSink != nil || (s.obs != nil && s.obs.slowLog != nil) {
			if src == "" && q != nil {
				src = q.String()
			}
			fin.tr = obs.NewTrace(src)
			fin.tr.Algorithm = set.Algorithm.String()
		}
		fin.src = src
	}
	fail := func(err error) (*Rows, error) {
		fin.finish(nil, err)
		return nil, err
	}
	release, err := s.admit(ctx)
	if err != nil {
		return fail(err)
	}
	fin.release = release
	if q == nil {
		sp := fin.tr.Span("parse")
		q, err = sparql.Parse(src)
		sp.End()
		if err != nil {
			return fail(err)
		}
		sp.SetAttrInt("patterns", int64(len(q.Patterns)))
	}
	g := s.budget.NewGauge()
	fin.g = g
	// Pin the serving snapshot once: one atomic load fixes the store
	// view, the ingest delta, the dataset snapshot and its epoch for
	// the whole query — statistics, cache lookup and execution all see
	// the same committed state no matter how many writes land mid-run.
	snap := s.engine.Snapshot()
	res, info, degraded, err := s.planLadder(ctx, q, set, g, fin.tr, snap)
	if err != nil {
		return fail(err)
	}
	sp := fin.tr.Span("execute")
	st, err := s.engine.ExecuteStream(ctx, res.Plan, q, engine.ExecEnv{Gauge: g, Faults: set.Faults, Snap: snap})
	if err != nil {
		sp.End()
		return fail(err)
	}
	out := st.Result()
	out.Opt = res
	out.CacheInfo = info
	// The ladder's own degradations come first, then any failover
	// notes the engine recorded (node died, served from replicas).
	out.Degraded = append(degraded, out.Degraded...)
	if len(out.Degraded) > 0 {
		s.resInst.QueryDegraded()
	}
	return &Rows{sys: s, ctx: ctx, fin: fin, st: st, sp: sp, limit: set.Limit}, nil
}

// rowHeaderBytes is the per-row overhead charged beside the payload:
// one slice header.
const rowHeaderBytes = 24

// collectChargeStep batches the materializing path's output-arena
// reservations, so collection doesn't hit the budget atomics per row.
const collectChargeStep = 64 * 1024

// collect drains the cursor into a materialized, lexicographically
// sorted row set — Run's epilogue. The retained rows are charged to
// the call's gauge under "flatten" (the site engine.ExecuteEnv charges
// too), so Run keeps its memory-budget
// semantics: a result too big for the per-query budget fails with a
// *BudgetError even though the stream underneath would have coped.
func (r *Rows) collect() (*ExecResult, error) {
	width := len(r.Vars())
	rowBytes := int64(width)*4 + rowHeaderBytes
	var rows [][]rdf.TermID
	var charged int64
	for r.Next() {
		need := int64(len(rows)+1) * rowBytes
		if need-charged >= collectChargeStep {
			if err := r.fin.g.Reserve("flatten", need-charged); err != nil {
				r.finish(err)
				return nil, err
			}
			charged = need
		}
		rows = append(rows, append(make([]rdf.TermID, 0, width), r.row...))
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	slices.SortFunc(rows, slices.Compare)
	res := r.Result()
	res.Rows = rows
	return res, nil
}
