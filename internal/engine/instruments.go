package engine

import (
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/resilience"
)

// opName is the ASCII metric/span name of a plan operator (the plan
// package's String() uses the paper's ⋈ notation, which makes poor
// metric label values).
func opName(a plan.Algorithm) string {
	switch a {
	case plan.Scan:
		return "scan"
	case plan.LocalJoin:
		return "local_join"
	case plan.BroadcastJoin:
		return "broadcast_join"
	default:
		return "repartition_join"
	}
}

// Instruments is the engine's metrics bundle. A nil *Instruments
// disables recording: the engine's hot paths guard every record call
// behind one nil check, and the recording methods themselves are
// nil-receiver safe.
type Instruments struct {
	// Executes / ExecuteSeconds count and time whole plan executions.
	Executes       *obs.Counter
	ExecuteSeconds *obs.Histogram
	// ResultRows counts distinct result rows returned to callers.
	ResultRows *obs.Counter
	// ScannedTriples/TransferredRows/TransferredBytes/JoinedRows
	// accumulate the per-run Metrics across executions.
	ScannedTriples   *obs.Counter
	TransferredRows  *obs.Counter
	TransferredBytes *obs.Counter
	JoinedRows       *obs.Counter
	// Failovers counts node operations served via failover (replica
	// scans of a dead node's fragment, re-homed scatter partitions).
	Failovers *obs.Counter
	// PanicsRecovered counts worker panics converted into typed
	// errors. Registered under the shared resilience family, so the
	// engine's, the optimizer's and the serving path's recoveries
	// accumulate into one process-wide series.
	PanicsRecovered *obs.Counter

	opRuns    [4]*obs.Counter
	opSeconds [4]*obs.Histogram
	opRows    [4]*obs.Counter
}

// NewInstruments registers the engine's metrics on r and returns the
// bundle. A nil registry returns nil (instrumentation disabled).
func NewInstruments(r *obs.Registry) *Instruments {
	if r == nil {
		return nil
	}
	inst := &Instruments{
		Executes:         r.Counter("engine_executes_total", "Plan executions."),
		ExecuteSeconds:   r.Histogram("engine_execute_seconds", "Plan execution latency.", nil),
		ResultRows:       r.Counter("engine_result_rows_total", "Distinct result rows returned."),
		ScannedTriples:   r.Counter("engine_scanned_triples_total", "Index postings touched by leaf scans."),
		TransferredRows:  r.Counter("engine_transferred_rows_total", "Rows moved across node boundaries."),
		TransferredBytes: r.Counter("engine_transferred_bytes_total", "Bytes moved across node boundaries."),
		JoinedRows:       r.Counter("engine_joined_rows_total", "Rows produced by join operators."),
		Failovers:        r.Counter("engine_failover_total", "Node operations served via failover (replica scans, re-homed shuffles)."),
		PanicsRecovered:  r.Counter("resilience_panics_recovered_total", resilience.PanicsRecoveredHelp),
	}
	for a := plan.Scan; a <= plan.RepartitionJoin; a++ {
		lbl := obs.Label{Key: "operator", Value: opName(a)}
		inst.opRuns[a] = r.Counter("engine_operator_runs_total", "Operator evaluations by type.", lbl)
		inst.opSeconds[a] = r.Histogram("engine_operator_seconds", "Operator own-time by type.", nil, lbl)
		inst.opRows[a] = r.Counter("engine_operator_rows_total", "Rows produced by operator type.", lbl)
	}
	return inst
}

// recordOp folds one operator evaluation into the per-operator series.
func (i *Instruments) recordOp(a plan.Algorithm, d time.Duration, rows int64) {
	if i == nil {
		return
	}
	if a > plan.RepartitionJoin {
		return
	}
	i.opRuns[a].Inc()
	i.opSeconds[a].ObserveDuration(d)
	i.opRows[a].Add(rows)
}

// recordExecute folds one finished execution into the metrics.
func (i *Instruments) recordExecute(d time.Duration, rows int, m Metrics) {
	if i == nil {
		return
	}
	i.Executes.Inc()
	i.ExecuteSeconds.ObserveDuration(d)
	i.ResultRows.Add(int64(rows))
	i.ScannedTriples.Add(m.ScannedTriples)
	i.TransferredRows.Add(m.TransferredRows)
	i.TransferredBytes.Add(m.TransferredBytes)
	i.JoinedRows.Add(m.JoinedRows)
}

// recordFailovers folds one execution's failover count in.
func (i *Instruments) recordFailovers(n int64) {
	if i == nil || n == 0 {
		return
	}
	i.Failovers.Add(n)
}

func (i *Instruments) panicRecovered() {
	if i == nil {
		return
	}
	i.PanicsRecovered.Inc()
}
