package opt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

// Options are the pruning rules of TD-CMDP (§IV-A) plus the
// parallelism knob. The zero value is the unpruned TD-CMD at the
// default parallelism.
type Options struct {
	// PruneCCMD restricts k>2 divisions to connected complete-multi-
	// divisions (Rule 1).
	PruneCCMD bool
	// BinaryBroadcastOnly considers broadcast joins only for binary
	// divisions (Rule 2).
	BinaryBroadcastOnly bool
	// LocalShortcut makes the local-join plan final for local
	// subqueries, skipping their enumeration entirely (Rule 3).
	LocalShortcut bool
	// Parallelism bounds the number of worker goroutines the
	// enumeration may use. 0 selects runtime.GOMAXPROCS(0); any value
	// <= 1 selects the exact sequential path. Parallel runs are
	// deterministic: they produce plans with the same cost and the
	// same search-space counters as the sequential run.
	Parallelism int
}

// CMDPOptions enables all three TD-CMDP pruning rules.
func CMDPOptions() Options {
	return Options{PruneCCMD: true, BinaryBroadcastOnly: true, LocalShortcut: true}
}

// Counter instruments one optimizer run. It is a plain value snapshot;
// the enumerator accumulates into atomic counters internally and folds
// them into a Counter when the run finishes.
type Counter struct {
	// CMDs is the number of join operators (connected multi-divisions)
	// enumerated — the "size of the search space" of paper Table VII.
	CMDs int64
	// Plans is the number of candidate plans costed (each cmd may be
	// costed with several join algorithms).
	Plans int64
	// Subqueries is the number of distinct subqueries planned.
	Subqueries int64
}

// counters is the concurrency-safe accumulator behind Counter.
type counters struct {
	cmds, plans, subqueries atomic.Int64
}

func (c *counters) snapshot() Counter {
	return Counter{
		CMDs:       c.cmds.Load(),
		Plans:      c.plans.Load(),
		Subqueries: c.subqueries.Load(),
	}
}

// space is one plan-enumeration problem over "units". For plain TD-CMD
// each unit is one triple pattern; HGR-TD-CMD collapses local groups
// of patterns into single units and reuses the same machinery.
//
// Everything a worker reads during enumeration (jg, card, isLocal,
// params, leaves) is immutable once run starts; mutable state is
// confined to the memo (plain map when sequential, a table of plan
// futures with lock-free hits when parallel), the atomic counters and
// the cancellation flag.
type space struct {
	ctx     context.Context
	jg      *querygraph.JoinGraph // join graph over units
	leaf    func(unit int) *plan.Node
	card    func(units bitset.TPSet) float64
	isLocal func(units bitset.TPSet) bool
	params  cost.Params
	opt     Options
	counter *counters
	// inst is the optional metrics bundle; nil disables recording.
	// Memo hit/miss splits and pruning tallies are schedule-dependent,
	// so they flow here rather than into the deterministic counters.
	inst *Instruments
	// gauge charges memo growth against the query's memory budget
	// (nil = unlimited); faults arms deterministic fault injection
	// (nil in production). memoCharged tracks what this run reserved
	// so releaseMemo can return it when the memo dies with the run.
	gauge       *resilience.Gauge
	faults      *faultinject.Set
	memoCharged atomic.Int64

	// leaves caches the leaf plan of every unit: leaf plans are pure
	// functions of the unit, and localPlan/bestPlanGen ask for the
	// same ones over and over.
	leaves []*plan.Node

	// Sequential memo (Parallelism <= 1).
	memo map[bitset.TPSet]*plan.Node

	// Parallel machinery (Parallelism > 1).
	pmemo *memoTable
	pool  *pool

	// stopped flips once on the first observed cancellation; every
	// worker polls it. err records the first cause.
	stopped atomic.Bool
	errMu   sync.Mutex
	err     error
}

// cmdBatchSize is how many connected multi-divisions the enumeration
// goroutine buffers before handing them to a costing worker. Large
// enough to amortize the handoff, small enough that children of early
// CMDs start planning while later ones are still being enumerated.
const cmdBatchSize = 32

const cancelCheckInterval = 4096

// worker carries per-goroutine enumeration state — currently just the
// step counter that rations context checks. Each goroutine owns its
// own worker, so the counter needs no synchronization and every worker
// checks the context at least once per cancelCheckInterval of its own
// steps (the shared-counter version skipped checks arbitrarily long
// once several goroutines interleaved increments).
type worker struct {
	sp    *space
	steps int
}

// cancelled polls the run's stop flag and, every
// cancelCheckInterval steps of this worker, the context deadline.
func (w *worker) cancelled() bool {
	sp := w.sp
	if sp.stopped.Load() {
		return true
	}
	w.steps++
	if w.steps%cancelCheckInterval == 0 {
		if err := obs.Canceled(sp.ctx, "optimize"); err != nil {
			sp.fail(err)
			return true
		}
	}
	return false
}

// fail records the first error and stops every worker.
func (sp *space) fail(err error) {
	sp.errMu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.errMu.Unlock()
	sp.stopped.Store(true)
}

// parallelism resolves Options.Parallelism: 0 means GOMAXPROCS.
func (sp *space) parallelism() int {
	p := sp.opt.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// run optimizes the full unit set.
func (sp *space) run() (*plan.Node, error) {
	all := sp.jg.All()
	if !sp.jg.Connected(all) {
		return nil, fmt.Errorf("opt: query is disconnected; a Cartesian-product-free plan does not exist")
	}
	if err := obs.Canceled(sp.ctx, "optimize"); err != nil {
		return nil, err // honor already-expired contexts before fanning out
	}
	sp.buildLeaves()
	p := sp.enumerate(all)
	if sp.err != nil {
		return nil, sp.err
	}
	if p == nil {
		return nil, fmt.Errorf("opt: no plan found")
	}
	return p, nil
}

// enumerate runs the memoized recursion with the run's panic firewall:
// a panic on the enumerating goroutine (pool workers carry their own
// recovery in flush) becomes a typed *resilience.PanicError failing
// this run only. The memo's budget charges are returned on every exit —
// the memo dies with the run even though the winning plan survives it.
func (sp *space) enumerate(all bitset.TPSet) (p *plan.Node) {
	defer sp.releaseMemo()
	defer func() {
		if r := recover(); r != nil {
			sp.fail(resilience.NewPanicError(r))
			sp.inst.panicRecovered()
			p = nil
		}
	}()
	w := &worker{sp: sp}
	if sp.parallelism() > 1 {
		sp.pmemo = newMemoTable()
		sp.pool = newPool(sp.parallelism())
		return sp.bestPar(all, false, w)
	}
	sp.memo = make(map[bitset.TPSet]*plan.Node)
	return sp.best(all, false, w)
}

// buildLeaves materializes the per-unit leaf plans once.
func (sp *space) buildLeaves() {
	sp.leaves = make([]*plan.Node, sp.jg.NumTP)
	for u := 0; u < sp.jg.NumTP; u++ {
		sp.leaves[u] = sp.leaf(u)
	}
}

// best is GetBestPlan of Algorithm 1: memoized recursion (sequential
// path). inheritedLocal is true when an ancestor subquery was already
// known local (Lemma 4), which lets us skip the check.
func (sp *space) best(s bitset.TPSet, inheritedLocal bool, w *worker) *plan.Node {
	if p, ok := sp.memo[s]; ok {
		sp.inst.memoHit()
		return p
	}
	sp.inst.memoMiss()
	if w.cancelled() {
		return nil
	}
	p := sp.bestPlanGen(s, inheritedLocal, w)
	if !sp.stopped.Load() && sp.chargeMemoEntry() {
		sp.memo[s] = p
	}
	return p
}

// bestPlanGen is BestPlanGen of Algorithm 1 (sequential path).
func (sp *space) bestPlanGen(s bitset.TPSet, inheritedLocal bool, w *worker) *plan.Node {
	sp.counter.subqueries.Add(1)
	if s.Len() == 1 {
		return sp.leaves[s.Min()]
	}
	local := inheritedLocal || sp.isLocal(s)
	var bPlan *plan.Node
	if local {
		bPlan = sp.localPlan(s)
		if sp.opt.LocalShortcut {
			sp.inst.localShortcut()
			return bPlan // Rule 3: the local join plan is final
		}
	}
	out := sp.card(s)
	// The candidate's children fill cur; an improving candidate swaps
	// cur with win, so the winner's children are always in win and a
	// losing cmd (the common case) neither allocates nor copies. The
	// join node is built once, for the winner. cmds/plans accumulate
	// locally and fold into the shared atomics once per subquery,
	// keeping the hot loop free of shared writes.
	var curBuf, winBuf [bitset.MaxPatterns]*plan.Node
	cur, win := curBuf[:0], winBuf[:0]
	var winner candidate
	if bPlan != nil {
		winner.cost = bPlan.Cost
	}
	var cmds, plans int64
	ConnMultiDivision(sp.jg, s, sp.opt.PruneCCMD, func(cmd CMD) bool {
		if w.cancelled() {
			return false
		}
		sp.faults.PanicIf(faultinject.OptPanic)
		cmds++
		cur = cur[:0]
		for _, part := range cmd.Parts {
			ch := sp.best(part, local, w)
			if ch == nil {
				return false // cancelled
			}
			cur = append(cur, ch)
		}
		alg, c := sp.bestCandidate(cur, out, &plans)
		if (bPlan == nil && len(win) == 0) || c < winner.cost {
			winner = candidate{alg: alg, cost: c, vj: cmd.Var}
			cur, win = win, cur
		}
		return true
	})
	sp.counter.cmds.Add(cmds)
	sp.counter.plans.Add(plans)
	if len(win) > 0 {
		kids := append([]*plan.Node(nil), win...)
		bPlan = plan.NewJoin(winner.alg, sp.jg.Vars[winner.vj], kids, out, sp.params)
	}
	return bPlan
}

// candidate is the winning join of one subquery so far: its algorithm,
// cumulative cost and join variable. Its children live in scratch
// until enumeration is over and the one join node is built.
type candidate struct {
	alg  plan.Algorithm
	cost float64
	vj   int
}

// bestCandidate costs the join candidates of one cmd — repartition
// always, broadcast when Rule 2 allows — and returns the cheaper
// algorithm with its cumulative cost, preferring repartition on ties.
// Candidates are costed without building nodes (plan.JoinCost), so
// costing allocates nothing. plans accumulates the number of
// candidates costed into the caller's local counter.
func (sp *space) bestCandidate(children []*plan.Node, out float64, plans *int64) (plan.Algorithm, float64) {
	*plans++
	_, c := plan.JoinCost(plan.RepartitionJoin, children, out, sp.params)
	alg := plan.RepartitionJoin
	if !sp.opt.BinaryBroadcastOnly || len(children) == 2 {
		*plans++
		_, bc := plan.JoinCost(plan.BroadcastJoin, children, out, sp.params)
		if bc < c {
			alg, c = plan.BroadcastJoin, bc
		}
	} else {
		sp.inst.broadcastSkipped() // Rule 2 pruned this candidate
	}
	return alg, c
}

// bestPar is the parallel GetBestPlan: the first goroutine to claim a
// subquery plans it, everyone else blocks on its future. Each distinct
// subquery is therefore planned exactly once, as in the sequential
// run; whether a given subquery is local is a pure function of the
// set (Lemma 4), so the winning claimant's inheritedLocal flag cannot
// change the outcome.
func (sp *space) bestPar(s bitset.TPSet, inheritedLocal bool, w *worker) (p *plan.Node) {
	f, owner := sp.pmemo.claim(s)
	if !owner {
		sp.inst.memoHit()
		return f.wait()
	}
	sp.inst.memoMiss()
	// The owner must resolve its future on every exit — including a
	// panic unwinding through this frame — or the waiters deadlock. The
	// recovery itself happens further up (enumerate / flush); here we
	// only guarantee the wake-up, publishing whatever p holds (nil when
	// unwinding or cancelled).
	defer func() { f.resolve(p) }()
	if !sp.chargeMemoEntry() || w.cancelled() {
		return nil
	}
	p = sp.bestPlanGenPar(s, inheritedLocal, w)
	return p
}

// bestReducer folds the per-batch winners into the subquery's best.
// Min-cost folding is order-independent, so the reduction is
// deterministic up to cost even though batches finish in any order.
// It keeps the winning candidate and a copy of its children, and plan
// builds the one join node after every batch is in.
type bestReducer struct {
	mu     sync.Mutex
	local  *plan.Node // the local-join plan when the subquery is local
	winner candidate
	kids   []*plan.Node // the winner's children; empty until a merge
}

func (r *bestReducer) merge(c candidate, kids []*plan.Node) {
	r.mu.Lock()
	if (r.local == nil && len(r.kids) == 0) || c.cost < r.bestCost() {
		r.winner = c
		r.kids = append(r.kids[:0], kids...)
	}
	r.mu.Unlock()
}

// bestCost is the cost to beat: the winner's, else the local plan's.
func (r *bestReducer) bestCost() float64 {
	if len(r.kids) > 0 {
		return r.winner.cost
	}
	return r.local.Cost
}

// plan returns the subquery's best plan once every batch has merged.
func (r *bestReducer) plan(sp *space, out float64) *plan.Node {
	if len(r.kids) == 0 {
		return r.local
	}
	return plan.NewJoin(r.winner.alg, sp.jg.Vars[r.winner.vj], r.kids, out, sp.params)
}

// bestPlanGenPar is BestPlanGen with the connected multi-divisions
// fanned out to the worker pool: the enumeration goroutine streams
// cmds into fixed-size batches; each batch plans its parts (recursing
// into bestPar, which claims further subqueries) and costs its
// candidates concurrently with enumeration of the remaining cmds.
func (sp *space) bestPlanGenPar(s bitset.TPSet, inheritedLocal bool, w *worker) *plan.Node {
	sp.counter.subqueries.Add(1)
	if s.Len() == 1 {
		return sp.leaves[s.Min()]
	}
	local := inheritedLocal || sp.isLocal(s)
	red := &bestReducer{}
	if local {
		lp := sp.localPlan(s)
		if sp.opt.LocalShortcut {
			sp.inst.localShortcut()
			return lp // Rule 3: the local join plan is final
		}
		red.local = lp
	}
	out := sp.card(s)
	var wg sync.WaitGroup
	var cmds int64
	batch := sp.pool.getBatch()
	flush := func() {
		if batch.len() == 0 {
			return
		}
		b := batch
		batch = sp.pool.getBatch()
		wg.Add(1)
		sp.pool.submit(func() {
			defer wg.Done()
			// Recover here — inside the submitted closure — so a panic
			// is caught whether the batch ran on a pool goroutine or
			// inline on the enumerating one. The run fails with a typed
			// error; the sibling workers see stopped and drain.
			defer func() {
				if r := recover(); r != nil {
					sp.fail(resilience.NewPanicError(r))
					sp.inst.panicRecovered()
				}
			}()
			sp.costBatch(b, local, out, red)
			sp.pool.putBatch(b)
		})
	}
	ConnMultiDivision(sp.jg, s, sp.opt.PruneCCMD, func(cmd CMD) bool {
		if w.cancelled() {
			return false
		}
		cmds++
		batch.add(cmd)
		if batch.len() == cmdBatchSize {
			flush()
		}
		return true
	})
	sp.counter.cmds.Add(cmds)
	flush()
	wg.Wait()
	sp.pool.putBatch(batch)
	return red.plan(sp, out)
}

// costBatch plans the parts of every cmd in b and merges the batch's
// best candidate into red. Runs on a pool worker (or inline on the
// enumerating goroutine when the pool is saturated).
func (sp *space) costBatch(b *cmdBatch, local bool, out float64, red *bestReducer) {
	w := &worker{sp: sp}
	var winner candidate
	var plans int64
	cur, win := b.cur[:0], b.win[:0]
	for i := 0; i < b.len(); i++ {
		if w.cancelled() {
			break
		}
		sp.faults.PanicIf(faultinject.OptPanic)
		parts := b.partsOf(i)
		cur = cur[:0]
		ok := true
		for _, part := range parts {
			ch := sp.bestPar(part, local, w)
			if ch == nil {
				ok = false // cancelled
				break
			}
			cur = append(cur, ch)
		}
		if !ok {
			break
		}
		alg, c := sp.bestCandidate(cur, out, &plans)
		if len(win) == 0 || c < winner.cost {
			winner = candidate{alg: alg, cost: c, vj: b.vjs[i]}
			cur, win = win, cur
		}
	}
	sp.counter.plans.Add(plans)
	if len(win) > 0 {
		red.merge(winner, win)
	}
	// Keep the grown buffers for the batch's next use, without pinning
	// this run's plan nodes in the pool.
	b.cur, b.win = cur[:0], win[:0]
	clear(cur[:cap(cur)])
	clear(win[:cap(win)])
}

// localPlan builds the k-way local join of all units of the local
// subquery s.
func (sp *space) localPlan(s bitset.TPSet) *plan.Node {
	if s.Len() == 1 {
		return sp.leaves[s.Min()]
	}
	children := make([]*plan.Node, 0, s.Len())
	s.Each(func(u int) bool {
		children = append(children, sp.leaves[u])
		return true
	})
	joinVars := sp.jg.JoinVarsOf(s)
	name := ""
	if len(joinVars) > 0 {
		name = sp.jg.Vars[joinVars[0]]
	}
	sp.counter.plans.Add(1)
	return plan.NewJoin(plan.LocalJoin, name, children, sp.card(s), sp.params)
}
