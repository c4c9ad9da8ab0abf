package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"sparqlopt"
	"sparqlopt/internal/workload/lubm"
)

// OverloadRecord is one (mode, offered-load) cell of the overload
// experiment: a closed-loop client fleet hammering one system.
type OverloadRecord struct {
	// Mode is "gated" (admission control + memory budget) or "ungated".
	Mode string `json:"mode"`
	// Multiplier is the offered load as a multiple of serving capacity.
	Multiplier int `json:"offered_load_x"`
	Clients    int `json:"clients"`
	Offered    int `json:"queries_offered"`
	Succeeded  int `json:"succeeded"`
	// Rejected counts typed admission rejections (ErrOverloaded);
	// BudgetTrips counts typed memory-budget failures. Both are 0 for
	// a healthy gated run at low load and always 0 for rejections in
	// ungated mode (there is nothing to reject with).
	Rejected    int     `json:"rejected"`
	BudgetTrips int     `json:"budget_trips"`
	Failed      int     `json:"failed"` // other errors
	WallSeconds float64 `json:"wall_seconds"`
	// Throughput counts successful queries per second of wall time.
	Throughput float64 `json:"throughput_qps"`
	// Latency percentiles are over successful queries only — the
	// queries the system chose to serve.
	MeanMillis float64 `json:"mean_ms"`
	P50Millis  float64 `json:"p50_ms"`
	P99Millis  float64 `json:"p99_ms"`
}

// overloadReport is the BENCH_overload.json payload.
type overloadReport struct {
	Meta
	Capacity int `json:"capacity"` // gated max-concurrent
	MaxQueue int `json:"max_queued"`
	// MemBudgetBytes is the gated per-query memory budget.
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
	// GatedP99Held reports the experiment's acceptance criterion: the
	// gated system's p99 at the highest offered load stayed within 2x
	// of its p99 at 1x load.
	GatedP99Held bool             `json:"gated_p99_held_at_max_load"`
	Records      []OverloadRecord `json:"records"`
}

// overloadQueries are the serving mix: cheap-to-moderate LUBM shapes,
// so a single level finishes quickly and concurrency — not one huge
// query — dominates the latency tail.
var overloadQueries = []string{"L1", "L2", "L4", "L5", "L7"}

// OverloadBench drives closed-loop client fleets at 1x..8x of serving
// capacity against a gated system (admission control + per-query
// memory budget) and an ungated one, and reports throughput and latency
// percentiles per level (a full-scale run writes BENCH_overload.json).
// The point of the artifact: under admission control the p99 of served
// queries stays flat as offered load grows (excess is rejected fast,
// with a typed error and a retry-after hint), while the ungated
// system's tail latency degrades with every extra concurrent query.
func OverloadBench(cfg Config) error {
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: cfg.seed(), Compact: true})
	capacity := 2
	perQueryBudget := int64(1 << 28) // 256 MiB: roomy, trips only on runaways
	maxQueued := capacity

	perClient := 30
	multipliers := []int{1, 2, 4, 8}
	if cfg.Quick {
		perClient = 8
	}

	baseOpts := func() []sparqlopt.Option {
		return []sparqlopt.Option{
			sparqlopt.WithNodes(cfg.nodes()),
			sparqlopt.WithPlanCache(64),
		}
	}
	gated, err := sparqlopt.Open(ds, append(baseOpts(),
		sparqlopt.WithAdmissionControl(capacity, maxQueued),
		sparqlopt.WithMemoryBudget(perQueryBudget, 0))...)
	if err != nil {
		return err
	}
	ungated, err := sparqlopt.Open(ds, baseOpts()...)
	if err != nil {
		return err
	}

	report := overloadReport{
		Meta:     cfg.meta(),
		Capacity: capacity, MaxQueue: maxQueued, MemBudgetBytes: perQueryBudget,
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Overload profile (capacity %d, %d clients/x, %d queries/client)\n", capacity, capacity, perClient)
	fmt.Fprintln(w, "Mode\tLoad\tClients\tOK\tRejected\tFailed\tQPS\tp50\tp99")
	var gatedBase, gatedMax float64
	for _, mode := range []struct {
		name string
		sys  *sparqlopt.System
	}{{"gated", gated}, {"ungated", ungated}} {
		for _, m := range multipliers {
			rec := overloadLevel(cfg, mode.sys, mode.name, m, capacity*m, perClient)
			report.Records = append(report.Records, rec)
			if mode.name == "gated" {
				if m == multipliers[0] {
					gatedBase = rec.P99Millis
				}
				if m == multipliers[len(multipliers)-1] {
					gatedMax = rec.P99Millis
				}
			}
			fmt.Fprintf(w, "%s\t%dx\t%d\t%d\t%d\t%d\t%.1f\t%.1fms\t%.1fms\n",
				mode.name, m, rec.Clients, rec.Succeeded, rec.Rejected, rec.Failed,
				rec.Throughput, rec.P50Millis, rec.P99Millis)
		}
	}
	report.GatedP99Held = gatedBase > 0 && gatedMax <= 2*gatedBase
	fmt.Fprintf(w, "gated p99 at max load %.1fms vs 1x %.1fms — held within 2x: %v\n",
		gatedMax, gatedBase, report.GatedP99Held)
	if err := w.Flush(); err != nil {
		return err
	}
	return cfg.writeReport("overload", report)
}

// overloadLevel runs one closed-loop level: clients goroutines, each
// serving perClient queries back to back. Every query carries its own
// deadline, so a hung query fails itself, not the level.
func overloadLevel(cfg Config, sys *sparqlopt.System, mode string, multiplier, clients, perClient int) OverloadRecord {
	rec := OverloadRecord{Mode: mode, Multiplier: multiplier, Clients: clients, Offered: clients * perClient}
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				src := lubm.QueryText(overloadQueries[(c+i)%len(overloadQueries)])
				qStart := time.Now()
				_, err := sys.Run(context.Background(), src, sparqlopt.WithDeadline(cfg.execTimeout()))
				d := time.Since(qStart)
				mu.Lock()
				switch {
				case err == nil:
					rec.Succeeded++
					latencies = append(latencies, d)
				case errors.Is(err, sparqlopt.ErrOverloaded):
					rec.Rejected++
				case errors.Is(err, sparqlopt.ErrBudgetExceeded):
					rec.BudgetTrips++
				default:
					rec.Failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rec.WallSeconds = time.Since(start).Seconds()
	if rec.WallSeconds > 0 {
		rec.Throughput = float64(rec.Succeeded) / rec.WallSeconds
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		rec.MeanMillis = sum.Seconds() * 1000 / float64(len(latencies))
		rec.P50Millis = percentileMillis(latencies, 0.50)
		rec.P99Millis = percentileMillis(latencies, 0.99)
	}
	return rec
}

// percentileMillis reads the p-th percentile (0..1) of sorted
// latencies, in milliseconds.
func percentileMillis(sorted []time.Duration, p float64) float64 {
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx].Seconds() * 1000
}
