package resilience

import (
	"sync/atomic"

	"sparqlopt/internal/obs"
)

// Budget is the process-wide memory accounting shared by every
// admitted query. Each query charges through its own Gauge; the
// budget enforces a per-query limit and a total limit across all live
// gauges. Accounting is approximate by design — it tracks the arena
// capacities the engine materializes and the optimizer's memo growth,
// not every allocation — but it is charged before the memory is
// touched, so a trip aborts the query instead of the process.
//
// A nil *Budget (and the nil *Gauge it hands out) disables all
// accounting: every method is a nil-receiver no-op.
type Budget struct {
	perQuery int64 // per-query limit in bytes; 0 = unlimited
	total    int64 // process-wide limit in bytes; 0 = unlimited

	used  atomic.Int64 // bytes reserved across all live gauges
	trips *obs.Counter // optional resilience_budget_trips_total hook
}

// NewBudget returns a budget enforcing perQuery bytes per query and
// total bytes across all concurrent queries; either limit may be 0
// (unlimited). When both are 0 it returns nil — accounting disabled.
func NewBudget(perQuery, total int64) *Budget {
	if perQuery <= 0 && total <= 0 {
		return nil
	}
	if perQuery < 0 {
		perQuery = 0
	}
	if total < 0 {
		total = 0
	}
	return &Budget{perQuery: perQuery, total: total}
}

// Total returns the process-wide limit in bytes (0 = unlimited).
func (b *Budget) Total() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// Used returns the bytes currently reserved across all live gauges.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// SetTripCounter wires the budget's trip events to a metrics counter.
func (b *Budget) SetTripCounter(c *obs.Counter) {
	if b != nil {
		b.trips = c
	}
}

func (b *Budget) trip() {
	if b.trips != nil {
		b.trips.Inc()
	}
}

// NewGauge returns a fresh per-query gauge charging against b. A nil
// budget returns a nil gauge, the disabled value.
func (b *Budget) NewGauge() *Gauge {
	if b == nil {
		return nil
	}
	return &Gauge{b: b}
}

// Gauge is one query's memory meter (the tentpole's MemoryGauge). The
// engine's relation arenas and the optimizer's memo reserve through
// it; Reset at end of query (or between fallback-ladder attempts)
// returns everything to the shared budget. All methods are safe on a
// nil receiver and for concurrent use by the query's workers.
type Gauge struct {
	b    *Budget
	used atomic.Int64
	peak atomic.Int64
}

// Reserve charges n bytes for site, failing with a *BudgetError
// (matching ErrBudgetExceeded) naming the site when either the query's
// or the process-wide limit would be exceeded. A failed reservation
// charges nothing.
func (g *Gauge) Reserve(site string, n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	b := g.b
	u := g.used.Add(n)
	if b.perQuery > 0 && u > b.perQuery {
		g.used.Add(-n)
		b.trip()
		return &BudgetError{Site: site, Requested: n, Used: u - n, Limit: b.perQuery}
	}
	t := b.used.Add(n)
	if b.total > 0 && t > b.total {
		b.used.Add(-n)
		g.used.Add(-n)
		b.trip()
		return &BudgetError{Site: site, Requested: n, Used: t - n, Limit: b.total, Shared: true}
	}
	for {
		p := g.peak.Load()
		if u <= p || g.peak.CompareAndSwap(p, u) {
			return nil
		}
	}
}

// Peak returns the high-water mark of this query's reservations —
// the largest value Used has reached. Unlike Used it survives
// Release/Reset, so benchmarks can read a query's true peak footprint
// after the run finishes.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Release returns n bytes to both the query's and the process meter —
// called when an intermediate result dies before the query ends.
func (g *Gauge) Release(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.used.Add(-n)
	g.b.used.Add(-n)
}

// Used returns the bytes this query currently has reserved.
func (g *Gauge) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used.Load()
}

// Reset releases everything the gauge holds: end of query, or between
// fallback-ladder attempts (a failed optimization's memo charges must
// not count against the retry).
func (g *Gauge) Reset() {
	if g == nil {
		return
	}
	if n := g.used.Swap(0); n != 0 {
		g.b.used.Add(-n)
	}
}
