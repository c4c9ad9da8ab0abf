package opt

import (
	"fmt"

	"sparqlopt/internal/bitset"
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
// of patterns into single units and reuses the same machinery. groups
// maps units to the patterns they stand for; everything else about a
// set of units — its cardinality, locality and anchor — is the Kit's
// answer for those patterns.
//
// jg, groups and leaves are fixed once run starts; the memo, the
// counters and the Kit's step count and error change as it goes.
// Enumeration runs on the calling goroutine (DESIGN.md §7).
type space struct {
	*Kit
	jg *querygraph.JoinGraph // join graph over units
	// groups[u] holds unit u's patterns; nil when each unit is the
	// pattern of its index.
	groups  []bitset.TPSet
	opt     Options
	counter Counter
	// tally counts the Instruments' per-event metrics of this run.
	tally tally
	// memoCharged tracks what this run reserved against In.Gauge, so
	// releaseMemo can return it when the memo dies with the run.
	memoCharged int64

	// leaves holds the leaf plan of every unit: its scan, or its
	// group's local join.
	leaves []*plan.Node
	memo   memo
}

// patterns returns the patterns the units stand for.
func (sp *space) patterns(units bitset.TPSet) bitset.TPSet {
	if sp.groups == nil {
		return units
	}
	var out bitset.TPSet
	units.Each(func(u int) bool {
		out = out.Union(sp.groups[u])
		return true
	})
	return out
}

// card estimates the cardinality of a set of units.
func (sp *space) card(units bitset.TPSet) float64 {
	return sp.In.Est.Cardinality(sp.patterns(units))
}

// run optimizes the full unit set.
func (sp *space) run() (*plan.Node, error) {
	sp.buildLeaves()
	p := sp.enumerate(sp.jg.All())
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
	defer func() { sp.In.Inst.fold(sp.tally) }()
	defer func() {
		if r := recover(); r != nil {
			sp.fail(resilience.NewPanicError(r))
			sp.In.Inst.panicRecovered()
			p = nil
		}
	}()
	sp.memo = newMemo(memoInitialSlots)
	return sp.best(all, false).plan
}

// buildLeaves materializes the per-unit leaf plans once.
func (sp *space) buildLeaves() {
	if sp.groups == nil {
		sp.leaves = sp.scans
		return
	}
	sp.leaves = make([]*plan.Node, len(sp.groups))
	for u, g := range sp.groups {
		sp.leaves[u] = sp.LocalJoin(g, sp.JoinVar(g), nil) // every group is local
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
	if sp.Cancelled() {
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
	local := inheritedLocal || sp.IsLocal(sp.patterns(s))
	var bPlan *plan.Node
	if local {
		// The k-way local join of the units' leaves.
		kids := make([]*plan.Node, 0, s.Len())
		s.Each(func(u int) bool {
			kids = append(kids, sp.leaves[u])
			return true
		})
		sp.counter.Plans++
		bPlan = sp.LocalJoin(sp.patterns(s), joinVarName(sp.jg, s), kids)
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
		if sp.Cancelled() {
			return false
		}
		sp.In.Faults.PanicIf(faultinject.OptPanic)
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
		bPlan = plan.NewJoin(winner.alg, sp.jg.Vars[winner.vj], kids, out, sp.In.Params)
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
	p := &sp.In.Params
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
