package opt

import (
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/resilience"
)

// Instruments is the optimizer's metrics bundle. It is deliberately
// separate from Counter: Counter describes one run and is pinned by
// the golden plans, while memo hit/miss splits and pruning tallies
// live here, as monotonic process-wide metrics.
//
// A nil *Instruments disables everything: the recording methods are
// nil-receiver no-ops and the enumerator guards its only per-run
// time.Now calls behind one nil check.
type Instruments struct {
	// MemoHits / MemoMisses count memo-table lookups during plan
	// enumeration: one per subquery visit, a miss the first time.
	MemoHits   *obs.Counter
	MemoMisses *obs.Counter
	// LocalShortcuts counts subqueries finalized by pruning Rule 3
	// (the local-join plan made final without enumeration).
	LocalShortcuts *obs.Counter
	// BroadcastsSkipped counts join candidates not costed because of
	// pruning Rule 2 (broadcast joins for k>2 divisions).
	BroadcastsSkipped *obs.Counter
	// CMDs/Plans/Subqueries mirror Counter, accumulated across runs.
	CMDs       *obs.Counter
	Plans      *obs.Counter
	Subqueries *obs.Counter
	// PanicsRecovered counts enumerator panics converted into typed
	// errors. Registered under the shared resilience family, so
	// the optimizer's, the engine's and the serving path's recoveries
	// accumulate into one process-wide series.
	PanicsRecovered *obs.Counter

	runs    [Greedy + 1]*obs.Counter
	seconds [Greedy + 1]*obs.Histogram
}

// NewInstruments registers the optimizer's metrics on r and returns
// the bundle. A nil registry returns nil (instrumentation disabled).
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	inst := &Instruments{
		MemoHits:          r.Counter("opt_memo_hits_total", "Plan-memo lookups answered from the table."),
		MemoMisses:        r.Counter("opt_memo_misses_total", "Plan-memo lookups that had to enumerate."),
		LocalShortcuts:    r.Counter("opt_local_shortcuts_total", "Subqueries finalized by pruning Rule 3."),
		BroadcastsSkipped: r.Counter("opt_broadcasts_skipped_total", "Broadcast candidates pruned by Rule 2."),
		CMDs:              r.Counter("opt_cmds_total", "Connected multi-divisions enumerated."),
		Plans:             r.Counter("opt_plans_total", "Candidate plans costed."),
		Subqueries:        r.Counter("opt_subqueries_total", "Distinct subqueries planned."),
		PanicsRecovered:   r.Counter("resilience_panics_recovered_total", resilience.PanicsRecoveredHelp),
	}
	for a := TDCMD; a <= Greedy; a++ {
		lbl := obs.Label{Key: "algorithm", Value: a.String()}
		inst.runs[a] = r.Counter("opt_runs_total", "Optimization runs by concrete algorithm.", lbl)
		inst.seconds[a] = r.Histogram("opt_run_seconds", "Optimization latency by concrete algorithm.", nil, lbl)
	}
	return inst
}

func (i *Instruments) memoHit() {
	if i == nil {
		return
	}
	i.MemoHits.Inc()
}

func (i *Instruments) memoMiss() {
	if i == nil {
		return
	}
	i.MemoMisses.Inc()
}

func (i *Instruments) localShortcut() {
	if i == nil {
		return
	}
	i.LocalShortcuts.Inc()
}

func (i *Instruments) broadcastSkipped() {
	if i == nil {
		return
	}
	i.BroadcastsSkipped.Inc()
}

func (i *Instruments) panicRecovered() {
	if i == nil {
		return
	}
	i.PanicsRecovered.Inc()
}

// recordRun folds one finished run — the concrete algorithm used, its
// wall time and its search-space counters — into the metrics.
func (i *Instruments) recordRun(used Algorithm, d time.Duration, c Counter) {
	if i == nil {
		return
	}
	if used > Greedy {
		used = Greedy
	}
	i.runs[used].Inc()
	i.seconds[used].ObserveDuration(d)
	i.CMDs.Add(c.CMDs)
	i.Plans.Add(c.Plans)
	i.Subqueries.Add(c.Subqueries)
}
