// Package plancache is the serving-path plan cache: it makes repeated
// queries skip the optimizer entirely. The paper makes per-query
// optimization cheap; this layer makes it amortized-free for the hot
// part of a workload, the way production RDF stores (PHD-Store,
// AdPart) reuse plans and placement for recurring query patterns.
//
// Three mechanisms compose:
//
//   - Canonical fingerprints (querygraph.Canonicalize) collapse every
//     query of one shape — same join structure and predicates,
//     constants in the same subject/object positions — onto one cache
//     entry. Cached plans are stored in the canonical index/name space
//     and remapped to each concrete query on the way in and out, so
//     ?x <knows> <alice> can be served with the plan optimized for
//     ?y <knows> <bob>. Statistics are not cached: they depend on the
//     constants, and a miss collects its own.
//
//   - A lock-striped LRU bounds the number of resident fingerprints;
//     eviction is per shard, counters are global.
//
//   - Singleflight: the first goroutine to miss on a (fingerprint,
//     algorithm) pair owns the optimization; concurrent missers block
//     on its future instead of re-optimizing. Combined with epoch
//     tags — every cached artifact carries the dataset epoch it was
//     derived under; when the epoch moves, an entry is retagged if the
//     change missed its template's predicates (SetInvalidation) and
//     dropped otherwise — this gives at most one optimization per
//     fingerprint, algorithm and epoch.
//
// Serving a template plan to a query with different constants is the
// standard parameterized-plan trade-off: the plan is always valid
// (execution is exact, so result rows are identical to an uncached
// run), but it was costed under the first query's constants and may
// be suboptimal for skewed parameters.
package plancache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// numShards is the number of lock stripes. Like the optimizer's memo
// table, enough stripes that concurrent serving goroutines rarely
// contend, few enough that the table stays small.
const numShards = 16

// maxWaiterRetries bounds how many failed owners a singleflight waiter
// will outlive before surfacing the last owner's error. Each retry
// either claims ownership (and optimizes itself) or queues behind a
// newer owner, so repeated trips mean the shape itself keeps failing.
const maxWaiterRetries = 3

// CollectFunc computes fresh per-pattern statistics for q.
type CollectFunc func(q *sparql.Query) (*stats.Stats, error)

// OptimizeFunc runs the actual optimizer for a cache miss, using the
// statistics collect returned for the same query.
type OptimizeFunc func(ctx context.Context, q *sparql.Query, st *stats.Stats) (*opt.Result, error)

// Counters is a snapshot of the cache's cumulative behavior.
type Counters struct {
	// Hits counts Optimize calls served from a cached plan template.
	Hits int64
	// Misses counts Optimize calls that ran the optimizer.
	Misses int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// SingleflightWaits counts Optimize calls that blocked on another
	// goroutine's in-flight optimization of the same fingerprint
	// instead of duplicating it.
	SingleflightWaits int64
	// Invalidations counts entries reset because the dataset epoch
	// moved past the one they were derived under (and, with scoped
	// invalidation, the change actually touched the entry's
	// predicates).
	Invalidations int64
	// Retained counts entries that survived an epoch move because the
	// change set was disjoint from the entry's predicates — the writes
	// that scoped invalidation made free.
	Retained int64
}

// Info describes how the cache treated one Optimize call.
type Info struct {
	// Hit reports that the plan came from the cache (including plans
	// produced by an optimization this call waited on).
	Hit bool
	// Shared reports that this call blocked on another goroutine's
	// in-flight optimization (singleflight deduplication).
	Shared bool
	// Epoch is the dataset epoch the served plan was derived under.
	Epoch uint64
}

// Cache is a sharded LRU of plan templates keyed by canonical query
// fingerprint. It is safe for concurrent use.
type Cache struct {
	capPerShard int
	shards      [numShards]shard

	// lookup and changed enable predicate-scoped invalidation (see
	// SetInvalidation); both nil means every epoch move drops every
	// touched entry, the pre-scoping behavior.
	lookup  func(string) (rdf.TermID, bool)
	changed func(from, to uint64) rdf.ChangeSet

	hits, misses, evictions atomic.Int64
	waits, invalidations    atomic.Int64
	retained                atomic.Int64
}

type shard struct {
	mu   sync.Mutex
	byFP map[[2]uint64]*list.Element
	lru  *list.List // of *entry; front = most recently used
}

// entry holds everything cached for one fingerprint. All fields after
// mu are guarded by it; fp and key are immutable.
type entry struct {
	fp  [2]uint64
	key string

	mu    sync.Mutex
	valid bool   // epoch has been set at least once
	epoch uint64 // dataset epoch the contents were derived under
	// preds is the predicate set the fingerprint's template touches
	// (predicates are part of the canonical shape, so it is shared by
	// every query of the fingerprint). predWild marks a template whose
	// predicate set is unknowable — a variable predicate, or a
	// constant that was not interned when first seen — which must be
	// invalidated by every change. Both are set on first sync.
	preds    map[rdf.TermID]struct{}
	predWild bool
	// plans holds one future per algorithm, in canonical space.
	plans map[opt.Algorithm]*slot
}

// slot is the singleflight future for one (fingerprint, algorithm)
// optimization. The owner fills the result fields and closes done
// exactly once; waiters block on done and read afterwards. A slot
// that failed carries err and has been removed from entry.plans, so
// later calls retry.
type slot struct {
	done    chan struct{}
	plan    *plan.Node // canonical space
	counter opt.Counter
	used    opt.Algorithm
	groups  []bitset.TPSet // canonical space
	err     error
}

// New returns a cache holding at least capacity fingerprints (rounded
// up to a multiple of the shard count). capacity <= 0 returns nil —
// a nil *Cache is the "caching disabled" value and must not be used.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + numShards - 1) / numShards
	c := &Cache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].byFP = make(map[[2]uint64]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// Capacity returns the effective capacity in fingerprints.
func (c *Cache) Capacity() int { return c.capPerShard * numShards }

// Len returns the number of resident fingerprints.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Counters returns a snapshot of the cumulative counters.
func (c *Cache) Counters() Counters {
	return Counters{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		SingleflightWaits: c.waits.Load(),
		Invalidations:     c.invalidations.Load(),
		Retained:          c.retained.Load(),
	}
}

// SetInvalidation switches the cache to predicate-scoped invalidation:
// on an epoch move, an entry is dropped only when changed(entryEpoch,
// newEpoch) touches the predicate set of the entry's template
// (resolved to TermIDs via lookup); otherwise the entry — its plan
// templates — is retained and retagged to the new epoch. Must be called
// before the cache starts serving.
func (c *Cache) SetInvalidation(lookup func(string) (rdf.TermID, bool), changed func(from, to uint64) rdf.ChangeSet) {
	c.lookup = lookup
	c.changed = changed
}

// RegisterMetrics exposes the cache's counters and occupancy as live
// gauges on r (read at exposition time, no per-operation overhead).
// Safe to call on a nil cache or registry (no-op).
func (c *Cache) RegisterMetrics(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"plancache_hits", "Optimize calls served from a cached plan.", func() float64 { return float64(c.hits.Load()) }},
		{"plancache_misses", "Optimize calls that ran the optimizer.", func() float64 { return float64(c.misses.Load()) }},
		{"plancache_evictions", "Entries dropped by the LRU bound.", func() float64 { return float64(c.evictions.Load()) }},
		{"plancache_singleflight_waits", "Calls that joined an in-flight optimization.", func() float64 { return float64(c.waits.Load()) }},
		{"plancache_invalidations", "Entries reset by dataset epoch moves.", func() float64 { return float64(c.invalidations.Load()) }},
		{"plancache_retained", "Entries kept across epoch moves whose change sets missed them.", func() float64 { return float64(c.retained.Load()) }},
		{"plancache_entries", "Resident fingerprints.", func() float64 { return float64(c.Len()) }},
		{"plancache_capacity", "Fingerprint capacity.", func() float64 { return float64(c.Capacity()) }},
	}
	for _, g := range gauges {
		r.GaugeFunc(g.name, g.help, g.fn)
	}
}

// entryFor returns the (possibly fresh) entry for canon, updating LRU
// order and evicting past capacity. It returns nil on a 128-bit
// fingerprint collision between different templates — the newcomer is
// then served uncached rather than aliased onto the wrong shape.
func (c *Cache) entryFor(canon *querygraph.Canon) *entry {
	sh := &c.shards[canon.Fingerprint[0]%numShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byFP[canon.Fingerprint]; ok {
		e := el.Value.(*entry)
		if e.key != canon.Key {
			return nil
		}
		sh.lru.MoveToFront(el)
		return e
	}
	e := &entry{fp: canon.Fingerprint, key: canon.Key, plans: make(map[opt.Algorithm]*slot)}
	sh.byFP[canon.Fingerprint] = sh.lru.PushFront(e)
	for sh.lru.Len() > c.capPerShard {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.byFP, back.Value.(*entry).fp)
		c.evictions.Add(1)
	}
	return e
}

// syncEpoch reconciles the entry with the caller's (pinned) dataset
// epoch. Callers must hold e.mu. A caller at or behind the entry's
// epoch is served as-is: plans are valid at every epoch (execution is
// exact) and its rows come from its own pinned snapshot. When the
// caller's epoch is ahead, the entry is retained (and retagged) if
// scoped invalidation is on and the change set missed the template's
// predicates, and dropped otherwise. In-flight owners of dropped
// slots still resolve their own slot objects (waiters holding them
// are woken normally); the slots are simply no longer reachable for
// new calls.
func (e *entry) syncEpoch(epoch uint64, c *Cache, q *sparql.Query) {
	if e.valid && e.epoch >= epoch {
		return
	}
	if !e.valid {
		e.valid = true
		e.epoch = epoch
		e.resolvePreds(q, c)
		return
	}
	if c.changed != nil && !e.predWild {
		cs := c.changed(e.epoch, epoch)
		if !cs.Touches(e.preds) {
			if len(e.plans) > 0 {
				c.retained.Add(1)
			}
			e.epoch = epoch
			return
		}
	}
	if len(e.plans) > 0 {
		c.invalidations.Add(1)
	}
	e.epoch = epoch
	e.plans = make(map[opt.Algorithm]*slot)
}

// resolvePreds records the template's predicate set on first sync.
// Caller holds e.mu. Without scoped invalidation there is nothing to
// resolve; with it, any unresolvable predicate makes the entry
// wildcard (always invalidated), never wrongly retained.
func (e *entry) resolvePreds(q *sparql.Query, c *Cache) {
	if c.lookup == nil {
		return
	}
	e.preds = make(map[rdf.TermID]struct{}, len(q.Patterns))
	for _, tp := range q.Patterns {
		if tp.P.IsVar() {
			e.predWild = true
			return
		}
		id, ok := c.lookup(tp.P.Value)
		if !ok {
			e.predWild = true
			return
		}
		e.preds[id] = struct{}{}
	}
}

// Optimize returns an optimization result for q under algo and the
// given dataset epoch, serving a remapped cached template when one
// exists, joining an in-flight optimization of the same fingerprint
// when one is running, and otherwise optimizing via the callbacks. The
// returned result's plan is always in q's own pattern/variable space.
// tr, when non-nil, receives canonicalize / cache_lookup / stats /
// enumerate lifecycle spans.
func (c *Cache) Optimize(ctx context.Context, q *sparql.Query, algo opt.Algorithm, epoch uint64,
	collect CollectFunc, optimize OptimizeFunc, tr *obs.Trace) (*opt.Result, Info, error) {
	sp := tr.Span("canonicalize")
	canon, err := querygraph.Canonicalize(q)
	sp.End()
	if err != nil {
		return nil, Info{}, err
	}
	lookup := tr.Span("cache_lookup")
	e := c.entryFor(canon)
	if e == nil {
		// Fingerprint collision: bypass the cache for this query.
		lookup.SetAttr("outcome", "collision")
		lookup.End()
		c.misses.Add(1)
		st, err := collectTraced(tr, collect, q)
		if err != nil {
			return nil, Info{}, err
		}
		sp = tr.Span("enumerate")
		res, err := optimize(ctx, q, st)
		sp.End()
		return res, Info{Epoch: epoch}, err
	}

	var (
		s      *slot
		shared bool
	)
	for attempt := 0; ; attempt++ {
		e.mu.Lock()
		e.syncEpoch(epoch, c, q)
		cur, ok := e.plans[algo]
		if !ok {
			// This goroutine owns the optimization for (fingerprint, algo).
			s = &slot{done: make(chan struct{})}
			e.plans[algo] = s
		}
		e.mu.Unlock()
		if !ok {
			break
		}
		select {
		case <-cur.done:
		default:
			shared = true
			c.waits.Add(1)
			select {
			case <-cur.done:
			case <-ctx.Done():
				lookup.SetAttr("outcome", "canceled")
				lookup.End()
				return nil, Info{Shared: shared}, obs.Canceled(ctx, "cache_lookup")
			}
		}
		if cur.err != nil {
			// The owner failed — it may have been canceled, tripped its
			// budget, or panicked — and fail() already unpublished the
			// slot. Its private failure must not poison the fingerprint
			// for everyone who queued behind it: loop back to the claim
			// so one of the waiters becomes the new owner and optimizes
			// under its own context. Only give up after several
			// collective failures (the shape itself is likely broken),
			// or when our own context expired.
			if err := obs.Canceled(ctx, "cache_lookup"); err != nil {
				lookup.SetAttr("outcome", "canceled")
				lookup.End()
				return nil, Info{Shared: shared}, err
			}
			if attempt >= maxWaiterRetries {
				lookup.SetAttr("outcome", "error")
				lookup.End()
				return nil, Info{Epoch: epoch, Shared: shared}, cur.err
			}
			continue
		}
		c.hits.Add(1)
		lookup.SetAttr("outcome", "hit")
		if shared {
			lookup.SetAttr("shared", "true")
		}
		lookup.End()
		return &opt.Result{
			Plan:    remapPlan(cur.plan, canon.PatternOf, canon.VarOf),
			Counter: cur.counter,
			Used:    cur.used,
			Groups:  remapGroups(cur.groups, canon.PatternOf),
		}, Info{Hit: true, Shared: shared, Epoch: epoch}, nil
	}

	c.misses.Add(1)
	lookup.SetAttr("outcome", "miss")
	lookup.End()
	st, err := collectTraced(tr, collect, q)
	if err != nil {
		c.fail(e, algo, s, err)
		return nil, Info{Epoch: epoch, Shared: shared}, err
	}

	enumSpan := tr.Span("enumerate")
	res, err := optimize(ctx, q, st)
	enumSpan.End()
	if err != nil {
		c.fail(e, algo, s, err)
		return nil, Info{Epoch: epoch, Shared: shared}, err
	}
	s.plan = remapPlan(res.Plan, canon.CanonOf, canon.CanonVar)
	s.counter = res.Counter
	s.used = res.Used
	s.groups = remapGroups(res.Groups, canon.CanonOf)
	close(s.done)
	return res, Info{Epoch: epoch, Shared: shared}, nil
}

// fail resolves s with err and unpublishes it so later calls retry.
func (c *Cache) fail(e *entry, algo opt.Algorithm, s *slot, err error) {
	s.err = err
	close(s.done)
	e.mu.Lock()
	if e.plans[algo] == s {
		delete(e.plans, algo)
	}
	e.mu.Unlock()
}

// collectTraced runs collect under a "stats" span that records how
// many patterns needed a snapshot scan.
func collectTraced(tr *obs.Trace, collect CollectFunc, q *sparql.Query) (*stats.Stats, error) {
	sp := tr.Span("stats")
	defer sp.End()
	st, err := collect(q)
	if err != nil {
		return nil, err
	}
	sp.SetAttrInt("scanned", int64(st.Scanned))
	return st, nil
}
