package opt

import (
	"context"
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

// Options are the pruning rules of TD-CMDP (§IV-A). The zero value is
// the unpruned TD-CMD.
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
}

// CMDPOptions enables all three TD-CMDP pruning rules.
func CMDPOptions() Options {
	return Options{PruneCCMD: true, BinaryBroadcastOnly: true, LocalShortcut: true}
}

// Counter instruments one optimizer run: the size of the search space
// it enumerated.
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

// space is one plan-enumeration problem over "units". For plain TD-CMD
// each unit is one triple pattern; HGR-TD-CMD collapses local groups
// of patterns into single units and reuses the same machinery.
//
// jg, card, isLocal, params and leaves are fixed once run starts; the
// memo, the counters, the step count and err change as it goes.
// Enumeration runs on the calling goroutine (DESIGN.md §7).
type space struct {
	ctx     context.Context
	jg      *querygraph.JoinGraph // join graph over units
	leaf    func(unit int) *plan.Node
	card    func(units bitset.TPSet) float64
	isLocal func(units bitset.TPSet) bool
	// anchor names the anchor variable of a local subquery of units (see
	// partition.LocalChecker.Anchor), "" when there is none.
	anchor  func(units bitset.TPSet) string
	params  cost.Params
	opt     Options
	counter Counter
	// tally counts the Instruments' per-event metrics of this run.
	tally tally
	// inst is the optional metrics bundle; nil disables recording.
	inst *Instruments
	// gauge charges memo growth against the query's memory budget
	// (nil = unlimited); faults arms deterministic fault injection
	// (nil in production). memoCharged tracks what this run reserved
	// so releaseMemo can return it when the memo dies with the run.
	gauge       *resilience.Gauge
	faults      *faultinject.Set
	memoCharged int64

	// leaves caches the leaf plan of every unit: leaf plans are pure
	// functions of the unit, and localPlan/bestPlanGen ask for the
	// same ones over and over.
	leaves []*plan.Node
	memo   memo

	// steps counts enumeration steps, rationing context checks; err
	// records the first failure, after which every step stops.
	steps int
	err   error
}

const cancelCheckInterval = 4096

// cancelled reports whether the run has failed and, every
// cancelCheckInterval steps, polls the context deadline.
func (sp *space) cancelled() bool {
	if sp.err != nil {
		return true
	}
	sp.steps++
	if sp.steps%cancelCheckInterval == 0 {
		if err := obs.Canceled(sp.ctx, "optimize"); err != nil {
			sp.fail(err)
			return true
		}
	}
	return false
}

// fail records the first error, which stops the run.
func (sp *space) fail(err error) {
	if sp.err == nil {
		sp.err = err
	}
}

// run optimizes the full unit set.
func (sp *space) run() (*plan.Node, error) {
	all := sp.jg.All()
	if !sp.jg.Connected(all) {
		return nil, errDisconnected
	}
	if err := obs.Canceled(sp.ctx, "optimize"); err != nil {
		return nil, err // honor already-expired contexts before any work
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
// a panic while enumerating becomes a typed *resilience.PanicError
// failing this run only. The memo's budget charges are returned and
// the run's tally is folded into the Instruments on every exit — the
// memo dies with the run even though the winning plan survives it.
func (sp *space) enumerate(all bitset.TPSet) (p *plan.Node) {
	defer sp.releaseMemo()
	defer func() { sp.inst.fold(sp.tally) }()
	defer func() {
		if r := recover(); r != nil {
			sp.fail(resilience.NewPanicError(r))
			sp.inst.panicRecovered()
			p = nil
		}
	}()
	sp.memo = newMemo(memoInitialSlots)
	return sp.best(all, false).plan
}

// buildLeaves materializes the per-unit leaf plans once.
func (sp *space) buildLeaves() {
	sp.leaves = make([]*plan.Node, sp.jg.NumTP)
	for u := 0; u < sp.jg.NumTP; u++ {
		sp.leaves[u] = sp.leaf(u)
	}
}

// best is GetBestPlan of Algorithm 1: memoized recursion.
// inheritedLocal is true when an ancestor subquery was already known
// local (Lemma 4), which lets us skip the check.
func (sp *space) best(s bitset.TPSet, inheritedLocal bool) memoSlot {
	if slot, ok := sp.memo.get(s); ok {
		sp.tally.memoHits++
		return slot
	}
	sp.tally.memoMisses++
	if sp.cancelled() {
		return memoSlot{}
	}
	slot := memoSlot{key: s, plan: sp.bestPlanGen(s, inheritedLocal)}
	if slot.plan != nil {
		slot.card, slot.cost = slot.plan.Card, slot.plan.Cost
	}
	if sp.err == nil && sp.chargeMemoEntry() {
		sp.memo.put(slot)
	}
	return slot
}

// bestPlanGen is BestPlanGen of Algorithm 1.
func (sp *space) bestPlanGen(s bitset.TPSet, inheritedLocal bool) *plan.Node {
	sp.counter.Subqueries++
	if s.Len() == 1 {
		return sp.leaves[s.Min()]
	}
	local := inheritedLocal || sp.isLocal(s)
	var bPlan *plan.Node
	if local {
		bPlan = sp.localPlan(s)
		if sp.opt.LocalShortcut {
			sp.tally.localShortcuts++
			return bPlan // Rule 3: the local join plan is final
		}
	}
	out := sp.card(s)
	// The candidate's children fill cur; an improving candidate swaps
	// cur with win, so the winner's children are always in win and a
	// losing cmd (the common case) neither allocates nor copies. The
	// join node is built once, for the winner.
	var curBuf, winBuf [bitset.MaxPatterns]*plan.Node
	cur, win := curBuf[:0], winBuf[:0]
	var winner candidate
	if bPlan != nil {
		winner.cost = bPlan.Cost
	}
	ConnMultiDivision(sp.jg, s, sp.opt.PruneCCMD, func(cmd CMD) bool {
		if sp.cancelled() {
			return false
		}
		sp.faults.PanicIf(faultinject.OptPanic)
		sp.counter.CMDs++
		cur = cur[:0]
		var in joinInputs
		for _, part := range cmd.Parts {
			ch := sp.best(part, local)
			if ch.plan == nil {
				return false // cancelled
			}
			cur = append(cur, ch.plan)
			in.add(ch)
		}
		alg, c := sp.bestCandidate(len(cur), in, out)
		if (bPlan == nil && len(win) == 0) || c < winner.cost {
			winner = candidate{alg: alg, cost: c, vj: cmd.Var}
			cur, win = win, cur
		}
		return true
	})
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

// joinInputs folds Σ|SQ_i|, max|SQ_i| and the largest child cost of
// one cmd's children in the order plan.NewJoin folds them, so the
// winner's node, built later, carries bit-identical costs. It reads
// the children's memo slots, not their nodes.
type joinInputs struct {
	sum, max, maxCost float64
}

func (in *joinInputs) add(ch memoSlot) {
	in.sum += ch.card
	if ch.card > in.max {
		in.max = ch.card
	}
	if ch.cost > in.maxCost {
		in.maxCost = ch.cost
	}
}

// bestCandidate costs the join candidates of one cmd of k parts —
// repartition always, broadcast when Rule 2 allows — and returns the
// cheaper algorithm with its cumulative cost, preferring repartition
// on ties. Costing allocates nothing.
func (sp *space) bestCandidate(k int, in joinInputs, out float64) (plan.Algorithm, float64) {
	p := &sp.params
	sp.counter.Plans++
	alg, c := plan.RepartitionJoin, in.maxCost+p.RepartitionFromStats(in.sum, out)
	if !sp.opt.BinaryBroadcastOnly || k == 2 {
		sp.counter.Plans++
		if bc := in.maxCost + p.BroadcastFromStats(in.sum, in.max, out); bc < c {
			alg, c = plan.BroadcastJoin, bc
		}
	} else {
		sp.tally.broadcastsSkipped++ // Rule 2 pruned this candidate
	}
	return alg, c
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
	sp.counter.Plans++
	j := plan.NewJoin(plan.LocalJoin, name, children, sp.card(s), sp.params)
	j.Anchor = sp.anchor(s)
	return j
}
