package resilience

import "sparqlopt/internal/obs"

// PanicsRecoveredHelp is the shared help string for the
// resilience_panics_recovered_total counter. The opt and engine
// instrument bundles register the same family (the registry hands both
// the same counter), so the enumerator's and the engine's node
// goroutines' recoveries increment one process-wide series.
const PanicsRecoveredHelp = "Worker panics recovered into typed errors."

// Instruments is the serving path's resilience metrics bundle. All
// methods are nil-receiver no-ops, so the disabled path (no
// observability) costs one nil check.
type Instruments struct {
	// Admitted / Rejected count admission-control outcomes.
	Admitted *obs.Counter
	Rejected *obs.Counter
	// Degraded counts queries served through the fallback ladder
	// (retry algorithm, greedy baseline or node failover).
	Degraded *obs.Counter
	// BudgetTrips counts memory reservations rejected by a budget.
	BudgetTrips *obs.Counter

	registry *obs.Registry
}

// NewInstruments registers the resilience_* counters on r and returns
// the bundle. A nil registry returns nil (instrumentation disabled).
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	return &Instruments{
		Admitted:    r.Counter("resilience_admitted_total", "Queries admitted by admission control."),
		Rejected:    r.Counter("resilience_rejected_total", "Queries rejected by admission control."),
		Degraded:    r.Counter("resilience_degraded_total", "Queries served through the fallback ladder."),
		BudgetTrips: r.Counter("resilience_budget_trips_total", "Memory reservations rejected by a budget."),
		registry:    r,
	}
}

// ObserveAdmission exposes a's live state as gauges.
func (i *Instruments) ObserveAdmission(a *Admission) {
	if i == nil || a == nil {
		return
	}
	i.registry.GaugeFunc("resilience_in_flight", "Queries currently admitted.",
		func() float64 { return float64(a.InFlight()) })
	i.registry.GaugeFunc("resilience_queued", "Queries waiting for an admission slot.",
		func() float64 { return float64(a.Queued()) })
}

// ObserveBudget exposes b's live usage as a gauge and wires its trip
// counter.
func (i *Instruments) ObserveBudget(b *Budget) {
	if i == nil || b == nil {
		return
	}
	b.SetTripCounter(i.BudgetTrips)
	i.registry.GaugeFunc("resilience_mem_reserved_bytes", "Bytes reserved across all live query gauges.",
		func() float64 { return float64(b.Used()) })
}

// AdmissionAccepted records one admitted query.
func (i *Instruments) AdmissionAccepted() {
	if i == nil {
		return
	}
	i.Admitted.Inc()
}

// AdmissionRejected records one rejected query.
func (i *Instruments) AdmissionRejected() {
	if i == nil {
		return
	}
	i.Rejected.Inc()
}

// QueryDegraded records one query that fell down the ladder.
func (i *Instruments) QueryDegraded() {
	if i == nil {
		return
	}
	i.Degraded.Inc()
}
