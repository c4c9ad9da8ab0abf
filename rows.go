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
// log, admission release, memory-gauge reset, adaptive feedback) moves
// to the end of the stream: it runs when the cursor is exhausted,
// errors, or is Closed — exactly once.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plancache"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// TermID is a dictionary-encoded RDF term (see System.Term).
type TermID = rdf.TermID

// ShareCounters is a snapshot of the execution-sharing layer's
// cumulative counters (see WithExecutionSharing, System.ShareStats).
type ShareCounters = plancache.ShareCounters

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
	be  rowsBackend

	vars      []string
	limit     int64
	delivered int64

	chunk [][]rdf.TermID
	i     int
	row   []rdf.TermID

	res    *ExecResult
	err    error
	closed bool
}

// rowsBackend produces the raw chunk stream behind a Rows cursor —
// either this call's own engine execution or another in-flight
// identical call's broadcast.
type rowsBackend interface {
	// next returns the next chunk (valid until the following call) or
	// nil at the end of the stream.
	next(ctx context.Context) ([][]rdf.TermID, error)
	// close finalizes the execution exactly once. terminal is the error
	// that ended the stream (nil for a clean end or an abandon),
	// complete reports that the consumer saw the whole logical result
	// (exhaustion, or its row limit), delivered how many rows it got.
	close(terminal error, delivered int64, complete bool) *ExecResult
}

// Vars names the stream's output columns.
func (r *Rows) Vars() []string { return r.vars }

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
		// it is a complete result, not an abandon.
		r.finish(nil, true)
		return false
	}
	for {
		if r.i < len(r.chunk) {
			r.row = r.chunk[r.i]
			r.i++
			r.delivered++
			return true
		}
		chunk, err := r.be.next(r.ctx)
		if err != nil {
			r.finish(err, false)
			return false
		}
		if chunk == nil {
			r.finish(nil, true)
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
// abandons the stream: what did happen is recorded, and any followers
// sharing this execution are cut loose. Idempotent; returns Err.
func (r *Rows) Close() error {
	r.finish(nil, false)
	return r.err
}

// Result returns the execution's statistics result — plan, metrics,
// trace, cache info, Returned — available once the stream has ended
// (nil before then). Rows is nil on it: the rows went through the
// cursor.
func (r *Rows) Result() *ExecResult { return r.res }

// finish ends the stream exactly once: backend teardown, then the
// call-level finalizer.
func (r *Rows) finish(err error, complete bool) {
	if r.closed {
		return
	}
	r.closed = true
	r.err = err
	r.res = r.be.close(err, r.delivered, complete)
	r.fin.finish(r.res, err)
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
				e.Factorized = res.Factorized
				e.Shared = res.CacheInfo.SharedExec
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
	// Sustained node failure is a repartitioning trigger: an open
	// breaker (or a typed unavailable failure) kicks off a recovery
	// round that re-replicates the dead nodes' stranded triples.
	f.s.maybeRecover(err)
	if f.release != nil {
		f.release()
	}
	f.g.Reset()
	f.cancel()
}

// engineBackend streams this call's own engine execution, publishing
// each chunk to bc when the call leads a shared execution.
type engineBackend struct {
	sys  *System
	q    *Query
	st   *engine.Stream
	bc   *plancache.Broadcast // nil when not sharing
	g    *resilience.Gauge
	sp   *obs.Span // the open "execute" span; ended at close
	res  *ExecResult
	vars []string
	// drained marks that the engine stream itself ended (as opposed to
	// a limit cut, where published chunks already cover every sharer's
	// identical limit).
	drained     bool
	shareFailed bool
	closed      bool
}

// broadcastRowBytes is the reservation per published row: the row
// payload plus its slice header, mirroring the log's own accounting.
const broadcastRowBytes = 24

func (b *engineBackend) next(ctx context.Context) ([][]rdf.TermID, error) {
	rows, err := b.st.NextChunk(ctx)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		b.drained = true
		return nil, nil
	}
	if b.bc != nil && !b.shareFailed {
		// The broadcast log retains a copy of every chunk for followers
		// that join mid-stream; the retention is charged to the leader's
		// own gauge. A trip cuts the followers loose — the leader's
		// stream is unaffected.
		need := int64(len(rows)) * (int64(len(b.vars))*4 + broadcastRowBytes)
		if cerr := b.g.Reserve("share", need); cerr != nil {
			b.bc.Abort()
			b.shareFailed = true
		} else {
			b.bc.Publish(rows)
		}
	}
	return rows, nil
}

func (b *engineBackend) close(terminal error, delivered int64, complete bool) *ExecResult {
	if b.closed {
		return b.res
	}
	b.closed = true
	b.st.Finish()
	res := b.res
	res.Returned = delivered
	b.sp.SetAttrInt("rows", delivered)
	b.sp.End()
	res.Trace.AttachSpans(b.sp)
	if b.bc != nil && !b.shareFailed {
		switch {
		case terminal != nil:
			b.bc.Finish(nil, terminal)
		case complete:
			// Followers must not alias the result the caller may still
			// mutate (Run attaches sorted rows to it).
			cp := *res
			cp.Rows = nil
			b.bc.Finish(&cp, nil)
		default:
			// Abandoned mid-stream: the log will never be complete.
			b.bc.Abort()
		}
	}
	if terminal == nil {
		b.sys.observeAdaptive(b.q, res)
	}
	return res
}

// followerBackend replays an in-flight identical execution's broadcast
// log. A follower that loses its leader before consuming anything
// falls back to its own execution transparently.
type followerBackend struct {
	sys      *System
	bc       *plancache.Broadcast
	cursor   int
	fallback func(ctx context.Context) (*engineBackend, error)
	eng      *engineBackend // non-nil after a fallback
}

func (f *followerBackend) next(ctx context.Context) ([][]rdf.TermID, error) {
	if f.eng != nil {
		return f.eng.next(ctx)
	}
	chunk, end, err := f.bc.Next(ctx, f.cursor)
	if err != nil {
		if f.cursor == 0 && ctx.Err() == nil && f.fallback != nil {
			// The leader failed before this follower consumed anything:
			// nothing was delivered, so re-executing is transparent.
			f.sys.share.Fallback()
			eng, ferr := f.fallback(ctx)
			if ferr != nil {
				return nil, ferr
			}
			f.eng = eng
			return f.eng.next(ctx)
		}
		return nil, err
	}
	if end {
		return nil, nil
	}
	f.cursor++
	return chunk, nil
}

func (f *followerBackend) close(terminal error, delivered int64, complete bool) *ExecResult {
	if f.eng != nil {
		res := f.eng.close(terminal, delivered, complete)
		res.CacheInfo.SharedExec = false
		return res
	}
	res := &ExecResult{}
	if lr := f.bc.Result(); lr != nil {
		// The leader's stats result is immutable after Finish; the
		// shallow copy shares its trace and plan read-only.
		*res = *lr
	}
	res.Rows = nil
	res.Returned = delivered
	res.CacheInfo.SharedExec = true
	return res
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

// shareEligible reports whether one call may join the execution-
// sharing table: deterministic fault injection and per-call tracing
// are private to a call (a follower would observe the wrong
// lifecycle).
func shareEligible(set opt.RunSettings) bool {
	return set.Faults == nil && set.TraceSink == nil
}

// shareKey is the identity of one shared execution. The canonical
// fingerprint is NOT enough — it collapses constants, which share a
// plan but not results — so the key is the rendered query text plus
// everything else that changes the row stream: algorithm (plans may
// differ), snapshot epoch (data may differ) and row limit.
func shareKey(q *Query, set opt.RunSettings, snap *engine.Snap) string {
	epoch := uint64(0)
	if d := snap.Data(); d != nil {
		epoch = d.Epoch()
	}
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s", set.Algorithm, epoch, set.Limit, q.String())
}

// stream is the serving pipeline behind RunStream, Run and the HTTP
// endpoint. Exactly one of src and q is set by the caller. It admits,
// parses, pins the serving snapshot, plans down the degradation
// ladder and opens the engine's chunk stream — or, when execution
// sharing is on and an identical read is already in flight, subscribes
// to that read's broadcast instead of executing at all. Everything
// after the returned cursor is the stream's problem: the finalizer
// runs at its end, not at this function's return.
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
	// the whole query — statistics, cache lookup, the sharing key and
	// execution all see the same committed state no matter how many
	// writes land mid-run.
	snap := s.engine.Snapshot()

	// lead plans and opens this call's own execution, feeding bc (which
	// may be nil) — used by the leader path and by follower fallback.
	lead := func(ctx context.Context, bc *plancache.Broadcast) (*engineBackend, error) {
		res, info, degraded, err := s.planLadder(ctx, q, set, g, fin.tr, snap)
		if err != nil {
			bc.Finish(nil, err)
			return nil, err
		}
		sp := fin.tr.Span("execute")
		st, err := s.engine.ExecuteStream(ctx, res.Plan, q, engine.ExecEnv{Gauge: g, Faults: set.Faults, Snap: snap})
		if err != nil {
			sp.End()
			bc.Finish(nil, err)
			return nil, err
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
		bc.SetVars(st.Vars())
		return &engineBackend{sys: s, q: q, st: st, bc: bc, g: g, sp: sp, res: out, vars: st.Vars()}, nil
	}

	var be rowsBackend
	var vars []string
	if s.share != nil && shareEligible(set) {
		bc, leader := s.share.Join(shareKey(q, set, snap))
		if leader {
			eb, err := lead(ctx, bc)
			if err != nil {
				return fail(err)
			}
			be, vars = eb, eb.vars
		} else {
			hvars, herr := bc.Header(ctx)
			if herr != nil || hvars == nil {
				if ctx.Err() != nil {
					return fail(obs.Canceled(ctx, "share_wait"))
				}
				// The leader died before announcing anything; nothing was
				// consumed, so run the query ourselves.
				s.share.Fallback()
				eb, err := lead(ctx, nil)
				if err != nil {
					return fail(err)
				}
				be, vars = eb, eb.vars
			} else {
				be = &followerBackend{sys: s, bc: bc, fallback: func(ctx context.Context) (*engineBackend, error) {
					return lead(ctx, nil)
				}}
				vars = hvars
			}
		}
	} else {
		eb, err := lead(ctx, nil)
		if err != nil {
			return fail(err)
		}
		be, vars = eb, eb.vars
	}
	return &Rows{sys: s, ctx: ctx, fin: fin, be: be, vars: vars, limit: set.Limit}, nil
}

// collectChargeStep batches the materializing path's output-arena
// reservations, so collection doesn't hit the budget atomics per row.
const collectChargeStep = 64 * 1024

// collect drains the cursor into a materialized, lexicographically
// sorted row set — Run's epilogue. The retained rows are charged to
// the call's gauge under "flatten" (the site the materializing
// factorized path always used), so Run keeps its memory-budget
// semantics: a result too big for the per-query budget fails with a
// *BudgetError even though the stream underneath would have coped.
func (r *Rows) collect() (*ExecResult, error) {
	width := len(r.vars)
	rowBytes := int64(width)*4 + broadcastRowBytes
	var rows [][]rdf.TermID
	var charged int64
	for r.Next() {
		need := int64(len(rows)+1) * rowBytes
		if need-charged >= collectChargeStep {
			if err := r.fin.g.Reserve("flatten", need-charged); err != nil {
				r.finish(err, false)
				return nil, err
			}
			charged = need
		}
		rows = append(rows, append(make([]rdf.TermID, 0, width), r.row...))
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	res := r.Result()
	res.Rows = rows
	return res, nil
}
