package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"text/tabwriter"
	"time"

	"sparqlopt"
	"sparqlopt/internal/workload/lubm"
)

// FailoverRecord is one (system, phase) cell of the failover
// experiment: a workload slice against one twin in one health state.
type FailoverRecord struct {
	// System is "failover" (WithNodeFailover, which drives recovery) or
	// "no-failover" (the twin that shows the raw failure mode).
	System string `json:"system"`
	// Phase is "healthy" (before the kill), "killed" (node down,
	// serving from replicas / failing) or "recovered" (node still down,
	// stranded triples re-replicated).
	Phase     string `json:"phase"`
	Runs      int    `json:"runs"`
	Succeeded int    `json:"succeeded"`
	// Unavailable counts typed UnavailableError fast failures; Failed
	// counts anything else (must stay 0 — a node death may never
	// surface as an untyped error, hang or panic).
	Unavailable int `json:"unavailable"`
	Failed      int `json:"failed"`
	// Failovers sums the runs' failover operations (replica scans,
	// re-homed shuffle partitions).
	Failovers int64   `json:"failovers"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`

	// lastFail is when the phase's last typed failure finished — the
	// recovery horizon marker; not serialized.
	lastFail time.Time `json:"-"`
}

// failoverReport is the BENCH_failover.json payload.
type failoverReport struct {
	Meta
	KilledNode int `json:"killed_node"`
	// RecoveryMigrations is how many recovery rounds applied, read from
	// the recovery_rounds_total counter; ReplicationBefore/After bracket
	// their cost against the recovery budget.
	RecoveryMigrations int64   `json:"recovery_migrations"`
	ReplicationBefore  float64 `json:"replication_factor_before"`
	ReplicationAfter   float64 `json:"replication_factor_after"`
	// TimeToRecoverMillis is the wall time from the node kill until the
	// workload's first fully-successful round (recovery re-replication
	// included).
	TimeToRecoverMillis float64 `json:"time_to_recover_ms"`
	// CoveredSuccess is the headline acceptance: after recovery, every
	// query succeeds with the node still dead. P99Held reports whether
	// the failover twin's killed-phase p99 stayed within 2x healthy.
	CoveredSuccess bool             `json:"covered_success_after_recovery"`
	P99Held        bool             `json:"killed_p99_within_2x_healthy"`
	Records        []FailoverRecord `json:"records"`
}

// failoverQueries is the serving mix — the same cheap-to-moderate LUBM
// shapes as the overload experiment, so per-run latency reflects the
// failover machinery, not one huge join.
var failoverQueries = []string{"L1", "L2", "L4", "L5", "L7"}

// FailoverBench kills one node mid-workload and measures what each
// twin does about it. The failover twin (WithNodeFailover, each
// recovery round awaited before the next run) must keep serving:
// replica-covered scans stay bit-identical with p99 within 2x of
// healthy, stranded fragments fail fast with typed errors until a
// recovery round re-replicates them, and after recovery every query
// succeeds with the node still dead. The no-failover twin runs the same kill phase and shows the
// raw failure mode: typed fast failures on every affected query, no
// replica serving, no recovery. A full-scale run writes
// BENCH_failover.json.
func FailoverBench(cfg Config) error {
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: cfg.seed(), Compact: true})
	rounds := 20
	if cfg.Quick {
		rounds = 6
	}
	const killedNode = 1

	foCfg := sparqlopt.NodeFailoverConfig{
		MaxAttempts: 2,
		RetryBase:   100 * time.Microsecond,
		RetryCap:    time.Millisecond,
	}
	withFO, err := sparqlopt.Open(ds,
		sparqlopt.WithNodes(cfg.nodes()),
		sparqlopt.WithPlanCache(64),
		sparqlopt.WithNodeFailover(foCfg),
		sparqlopt.WithObservability(),
	)
	if err != nil {
		return err
	}
	withoutFO, err := sparqlopt.Open(ds,
		sparqlopt.WithNodes(cfg.nodes()),
		sparqlopt.WithPlanCache(64),
	)
	if err != nil {
		return err
	}

	report := failoverReport{Meta: cfg.meta(), KilledNode: killedNode}
	report.ReplicationBefore = withFO.ReplicationFactor()

	// Healthy baseline on both twins.
	foHealthy := failoverPhase(cfg, withFO, "failover", "healthy", rounds, nil)
	nfHealthy := failoverPhase(cfg, withoutFO, "no-failover", "healthy", rounds, nil)

	// Kill the node: its scan and shuffle sites fail on every hit for
	// the rest of the experiment. One shared fault set per twin keeps
	// the site hit-counts accumulating across runs.
	killFO := sparqlopt.NewFaultSet(cfg.seed())
	killFO.Arm(sparqlopt.FaultNodeScan(killedNode), 1)
	killFO.Arm(sparqlopt.FaultNodeShuffle(killedNode), 1)
	killNF := sparqlopt.NewFaultSet(cfg.seed())
	killNF.Arm(sparqlopt.FaultNodeScan(killedNode), 1)
	killNF.Arm(sparqlopt.FaultNodeShuffle(killedNode), 1)

	killStart := time.Now()
	foKilled := failoverPhase(cfg, withFO, "failover", "killed", rounds, killFO)
	// The killed phase's typed failures triggered recovery
	// re-replication, so full service resumed at the last failure; the
	// recovered phase proves it with the node still dead.
	report.TimeToRecoverMillis = float64(foKilled.lastFail.Sub(killStart).Milliseconds())
	if foKilled.Unavailable == 0 {
		report.TimeToRecoverMillis = 0 // nothing was stranded
	}
	foRecovered := failoverPhase(cfg, withFO, "failover", "recovered", rounds, killFO)
	nfKilled := failoverPhase(cfg, withoutFO, "no-failover", "killed", rounds, killNF)

	report.Records = []FailoverRecord{foHealthy, foKilled, foRecovered, nfHealthy, nfKilled}
	report.RecoveryMigrations = withFO.MetricsRegistry().Counter("recovery_rounds_total", "").Value()
	report.ReplicationAfter = withFO.ReplicationFactor()
	report.CoveredSuccess = foRecovered.Runs > 0 && foRecovered.Succeeded == foRecovered.Runs
	report.P99Held = foHealthy.P99Millis > 0 && foKilled.P99Millis <= 2*foHealthy.P99Millis

	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Failover profile (node %d of %d killed, %d rounds/phase)\n", killedNode, cfg.nodes(), rounds)
	fmt.Fprintln(w, "System\tPhase\tRuns\tOK\tUnavailable\tFailed\tFailovers\tp50\tp99")
	for _, r := range report.Records {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.2fms\t%.2fms\n",
			r.System, r.Phase, r.Runs, r.Succeeded, r.Unavailable, r.Failed, r.Failovers,
			r.P50Millis, r.P99Millis)
	}
	fmt.Fprintf(w, "recovery: %d round(s), replication %.3f -> %.3f, full service after %.1fms\n",
		report.RecoveryMigrations, report.ReplicationBefore, report.ReplicationAfter, report.TimeToRecoverMillis)
	fmt.Fprintf(w, "covered success after recovery: %v; killed p99 within 2x healthy: %v\n",
		report.CoveredSuccess, report.P99Held)
	if err := w.Flush(); err != nil {
		return err
	}
	return cfg.writeReport("failover", report)
}

// failoverPhase serves rounds of the workload against sys, every run
// carrying the phase's fault set (nil for the healthy phases), and
// folds the outcomes into one record.
func failoverPhase(cfg Config, sys *sparqlopt.System, system, phase string, rounds int, faults *sparqlopt.FaultSet) FailoverRecord {
	rec := FailoverRecord{System: system, Phase: phase}
	var latencies []time.Duration
	for r := 0; r < rounds; r++ {
		for _, name := range failoverQueries {
			src := lubm.QueryText(name)
			opts := []sparqlopt.RunOption{sparqlopt.WithDeadline(cfg.execTimeout())}
			if faults != nil {
				opts = append(opts, sparqlopt.WithFaultInjection(faults))
			}
			start := time.Now()
			res, err := sys.Run(context.Background(), src, opts...)
			d := time.Since(start)
			// A triggered recovery round lands before the next run.
			sys.WaitForMigrations()
			rec.Runs++
			switch {
			case err == nil:
				rec.Succeeded++
				rec.Failovers += res.Failovers
				latencies = append(latencies, d)
			case errors.Is(err, sparqlopt.ErrUnavailable):
				rec.Unavailable++
				rec.lastFail = time.Now()
			default:
				rec.Failed++
			}
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rec.P50Millis = percentileMillis(latencies, 0.50)
		rec.P99Millis = percentileMillis(latencies, 0.99)
	}
	return rec
}
