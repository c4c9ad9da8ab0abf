package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"sparqlopt"
	"sparqlopt/internal/workload/lubm"
)

// ObsOverheadRecord compares one LUBM query served with observability
// disabled (the default nil-check-only path) against the same query
// with the full metrics + slow-query-log layer enabled. Times are the
// minimum over the measurement rounds — the standard way to strip
// scheduler noise from a microbenchmark.
type ObsOverheadRecord struct {
	Query           string  `json:"query"`
	Patterns        int     `json:"patterns"`
	DisabledSeconds float64 `json:"disabled_seconds"`
	EnabledSeconds  float64 `json:"enabled_seconds"`
	// Overhead is enabled/disabled − 1: what turning observability on
	// costs for this query.
	Overhead float64 `json:"overhead"`
	Rows     int     `json:"rows"`
	Error    string  `json:"error,omitempty"`
}

// obsOverheadReport is the BENCH_obsoverhead.json payload. The
// acceptance bound is on the *disabled* path: with instruments compiled
// in but not wired, serving must not be measurably slower than the
// fully-enabled path lets us bound it — the regression test asserts
// total_disabled_seconds <= total_enabled_seconds * 1.02.
type obsOverheadReport struct {
	Meta
	Rounds               int     `json:"rounds"`
	TotalDisabledSeconds float64 `json:"total_disabled_seconds"`
	TotalEnabledSeconds  float64 `json:"total_enabled_seconds"`
	// TotalOverhead is the aggregate enabled/disabled − 1 across L1–L10.
	TotalOverhead float64             `json:"total_overhead"`
	Records       []ObsOverheadRecord `json:"records"`
}

// ObsOverheadBench serves LUBM L1–L10 through two Systems over the same
// dataset — one opened plain, one with WithObservability plus a
// keep-everything slow-query log — and reports per-query minimum
// latencies and the enabled-vs-disabled overhead (a full-scale run
// writes BENCH_obsoverhead.json).
func ObsOverheadBench(cfg Config) error {
	report, err := obsOverhead(cfg)
	if err != nil {
		return err
	}
	return cfg.writeReport("obsoverhead", report)
}

// obsOverhead is the measurement behind ObsOverheadBench. Rounds
// interleave the two systems so drift hits both equally.
func obsOverhead(cfg Config) (obsOverheadReport, error) {
	ds := lubm.Generate(lubm.Config{Universities: 7, Seed: cfg.seed(), Compact: cfg.Quick})
	open := func(observed bool) (*sparqlopt.System, error) {
		opts := []sparqlopt.Option{
			sparqlopt.WithNodes(cfg.nodes()),
		}
		if observed {
			opts = append(opts, sparqlopt.WithObservability(sparqlopt.WithSlowQueryLog(64, 0)))
		}
		return sparqlopt.Open(ds, opts...)
	}
	plain, err := open(false)
	if err != nil {
		return obsOverheadReport{}, err
	}
	observed, err := open(true)
	if err != nil {
		return obsOverheadReport{}, err
	}
	rounds := 7
	if cfg.Quick {
		rounds = 3
	}
	report := obsOverheadReport{Meta: cfg.meta(), Rounds: rounds}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Observability overhead (Hash-SO, TD-Auto, min of %d rounds per query)\n", rounds)
	fmt.Fprintln(w, "Query\tDisabled\tEnabled\tOverhead\tRows")
	for _, name := range lubm.QueryNames {
		rec, err := obsOverheadOne(cfg, plain, observed, name, rounds)
		if err != nil {
			return obsOverheadReport{}, fmt.Errorf("%s: %w", name, err)
		}
		report.Records = append(report.Records, rec)
		if rec.Error != "" {
			fmt.Fprintf(w, "%s\t%s\t\t\t\n", name, rec.Error)
			continue
		}
		report.TotalDisabledSeconds += rec.DisabledSeconds
		report.TotalEnabledSeconds += rec.EnabledSeconds
		fmt.Fprintf(w, "%s\t%.3gs\t%.3gs\t%+.1f%%\t%d\n",
			name, rec.DisabledSeconds, rec.EnabledSeconds, rec.Overhead*100, rec.Rows)
	}
	if report.TotalDisabledSeconds > 0 {
		report.TotalOverhead = report.TotalEnabledSeconds/report.TotalDisabledSeconds - 1
	}
	fmt.Fprintf(w, "total %.3gs disabled, %.3gs enabled (%+.1f%%)\n",
		report.TotalDisabledSeconds, report.TotalEnabledSeconds, report.TotalOverhead*100)
	return report, w.Flush()
}

// obsOverheadOne measures one query on both systems, interleaved, and
// keeps the per-system minimum. The query runs under its own deadline:
// a hang expires this query's context and fails this record only,
// leaving the rest of the run its full budget.
func obsOverheadOne(cfg Config, plain, observed *sparqlopt.System, name string, rounds int) (ObsOverheadRecord, error) {
	src := lubm.QueryText(name)
	q := lubm.Query(name)
	rec := ObsOverheadRecord{Query: name, Patterns: len(q.Patterns)}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout()+cfg.execTimeout())
	defer cancel()
	err := obsOverheadRun(ctx, plain, observed, src, &rec, rounds)
	if err != nil && ctx.Err() != nil {
		rec.Error = err.Error()
		return rec, nil
	}
	return rec, err
}

// obsOverheadRun is obsOverheadOne's measured body, bounded by ctx.
func obsOverheadRun(ctx context.Context, plain, observed *sparqlopt.System, src string, rec *ObsOverheadRecord, rounds int) error {
	// One warmup apiece, off the clock, to populate lazy state.
	if _, err := plain.Run(ctx, src); err != nil {
		rec.Error = err.Error()
		return nil
	}
	out, err := observed.Run(ctx, src)
	if err != nil {
		rec.Error = err.Error()
		return nil
	}
	rec.Rows = len(out.Rows)
	minDisabled, minEnabled := time.Duration(-1), time.Duration(-1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := plain.Run(ctx, src); err != nil {
			return err
		}
		if d := time.Since(start); minDisabled < 0 || d < minDisabled {
			minDisabled = d
		}
		start = time.Now()
		if _, err := observed.Run(ctx, src); err != nil {
			return err
		}
		if d := time.Since(start); minEnabled < 0 || d < minEnabled {
			minEnabled = d
		}
	}
	rec.DisabledSeconds = minDisabled.Seconds()
	rec.EnabledSeconds = minEnabled.Seconds()
	if rec.DisabledSeconds > 0 {
		rec.Overhead = rec.EnabledSeconds/rec.DisabledSeconds - 1
	}
	return nil
}
