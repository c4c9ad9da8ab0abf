package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"sparqlopt"
	"sparqlopt/internal/workload/lubm"
)

// adaptiveHotQueries are the repeating object-object joins the advisor
// mines: 2f co-locates subject-subject and subject-object joins, so
// only object-object joins repartition, and both inputs scatter on the
// shared object variable every round — exactly the recurring shuffle
// the migration eliminates. H1 joins students to the teachers of their
// courses; H2 finds co-instructors of the same course. Both have
// inputs large enough that the cost model prefers repartition over
// broadcast, and results small enough that the shuffle is a real
// fraction of the wall time.
var adaptiveHotQueries = []struct{ name, text string }{
	{"H1", `
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE {
	?s ub:takesCourse ?c .
	?t ub:teacherOf ?c .
}`},
	{"H2", `
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE {
	?t ub:teacherOf ?c .
	?u ub:teacherOf ?c .
}`},
}

// adaptiveColdQueries never repeat enough to trigger a migration; they
// measure collateral damage — the advisor must not slow down the
// workload it was not tuned for (acceptance: <10% regression).
var adaptiveColdQueries = []string{"L1", "L2", "L4", "L6"}

// AdaptiveQueryRecord is one query measured on both systems.
type AdaptiveQueryRecord struct {
	Query string `json:"query"`
	Kind  string `json:"kind"` // "hot" or "cold"
	Rows  int    `json:"rows"`
	// Identical: rows bit-identical to the single-node reference on
	// both systems, on every round (checked, not sampled).
	Identical bool `json:"identical"`
	// Shuffle volume of the first and last round (hot queries).
	StaticBytesFirst   int64 `json:"static_bytes_first,omitempty"`
	StaticBytesLast    int64 `json:"static_bytes_last,omitempty"`
	AdaptiveBytesFirst int64 `json:"adaptive_bytes_first,omitempty"`
	AdaptiveBytesLast  int64 `json:"adaptive_bytes_last,omitempty"`
	// Warm latency percentiles over the post-migration rounds (hot).
	StaticWarmP99Millis   float64 `json:"static_warm_p99_ms,omitempty"`
	AdaptiveWarmP99Millis float64 `json:"adaptive_warm_p99_ms,omitempty"`
	// Min-of-k wall times (cold queries) and their ratio.
	StaticWallSeconds   float64 `json:"static_wall_seconds,omitempty"`
	AdaptiveWallSeconds float64 `json:"adaptive_wall_seconds,omitempty"`
	ColdRatio           float64 `json:"cold_ratio,omitempty"` // adaptive / static
}

// adaptiveReport is the BENCH_adaptive.json payload.
type adaptiveReport struct {
	Meta
	Method  string                `json:"method"`
	Records []AdaptiveQueryRecord `json:"records"`
	// Advisor outcome.
	Migrations      int64 `json:"migrations"`
	MigratedTriples int64 `json:"migrated_triples"`
	AlignedGroups   int   `json:"aligned_groups"`
	// Replication factor before and after the migrations — the price
	// paid for the shuffle elimination.
	ReplicationBefore float64 `json:"replication_before"`
	ReplicationAfter  float64 `json:"replication_after"`
	// Headline: steady-state shuffle volume across the hot workload
	// (last round, summed) and its reduction; warm p99 across systems;
	// the worst cold-query slowdown.
	StaticSteadyBytes     int64   `json:"static_steady_bytes"`
	AdaptiveSteadyBytes   int64   `json:"adaptive_steady_bytes"`
	ShuffleReduction      float64 `json:"shuffle_reduction"` // 1 - adaptive/static
	StaticWarmP99Millis   float64 `json:"static_warm_p99_ms"`
	AdaptiveWarmP99Millis float64 `json:"adaptive_warm_p99_ms"`
	WarmSpeedup           float64 `json:"warm_speedup"` // static p99 / adaptive p99
	WorstColdRegression   float64 `json:"worst_cold_regression"`
}

// AdaptiveBench drives the same repeating hot workload through two
// identically configured systems — one with the adaptive advisor, one
// static — and reports the steady-state shuffle volume, warm latency
// and replication cost of the migrations, plus the cold-query
// regression guard. Every run on both systems is verified bit-identical
// to the single-node reference, including the first runs on each new
// placement. A full-scale run writes BENCH_adaptive.json.
func AdaptiveBench(cfg Config) error {
	unis := 5
	rounds := 24
	// Cold queries finish in ~1 ms, where scheduler jitter alone is
	// tens of percent; min-of-k needs a generous k to isolate the
	// placement's contribution from the noise floor.
	coldRuns := 20
	if cfg.Quick {
		unis = 3
		rounds = 5
		coldRuns = 6
	}
	// Non-compact LUBM: the hot joins need input sizes where the cost
	// model picks repartition over broadcast at the configured node
	// count (broadcast wins everything small).
	ds := lubm.Generate(lubm.Config{Universities: unis, Seed: cfg.seed()})
	const methodName = "2f"
	method, err := sparqlopt.PartitionMethod(methodName)
	if err != nil {
		return err
	}
	acfg := sparqlopt.AdaptiveConfig{
		MinShuffledBytes: 1 << 16,
		MinQueries:       2,
	}
	common := func() []sparqlopt.Option {
		return []sparqlopt.Option{
			sparqlopt.WithMethod(method),
			sparqlopt.WithNodes(cfg.nodes()),
			sparqlopt.WithPlanCache(64),
		}
	}
	static, err := sparqlopt.Open(ds, common()...)
	if err != nil {
		return err
	}
	adaptive, err := sparqlopt.Open(ds, append(common(), sparqlopt.WithAdaptivePartitioning(acfg))...)
	if err != nil {
		return err
	}
	report := adaptiveReport{Meta: cfg.meta(), Method: methodName}
	report.Meta.Adaptive = &AdaptiveMeta{
		Rounds:           rounds,
		MinShuffledBytes: acfg.MinShuffledBytes,
		MinQueries:       acfg.MinQueries,
	}
	report.ReplicationBefore = static.ReplicationFactor()

	ctx := context.Background()
	type refRows struct{ rows *sparqlopt.ExecResult }
	refs := map[string]refRows{}
	reference := func(name, text string) (*sparqlopt.ExecResult, error) {
		if r, ok := refs[name]; ok {
			return r.rows, nil
		}
		q, err := sparqlopt.ParseQuery(text)
		if err != nil {
			return nil, err
		}
		want, err := sparqlopt.Reference(ds, q)
		if err != nil {
			return nil, err
		}
		refs[name] = refRows{want}
		return want, nil
	}

	// Hot phase: the repeating workload, interleaved across systems so
	// machine drift hits both equally. Warm latencies start after round
	// 2 — by then the advisor has observed MinQueries rounds, migrated,
	// and the plan cache re-optimized against the new placement.
	const warmStart = 3
	hotRecs := make([]AdaptiveQueryRecord, len(adaptiveHotQueries))
	warmStatic := map[string][]time.Duration{}
	warmAdaptive := map[string][]time.Duration{}
	for i, hq := range adaptiveHotQueries {
		hotRecs[i] = AdaptiveQueryRecord{Query: hq.name, Kind: "hot", Identical: true}
	}
	for round := 0; round < rounds; round++ {
		// Collect the garbage of the previous round outside the timed
		// region: each round materializes ~10^5 result rows per system,
		// and a collection landing inside one side's timer would bill
		// the whole debt to whichever system drew the short straw.
		runtime.GC()
		for i, hq := range adaptiveHotQueries {
			want, err := reference(hq.name, hq.text)
			if err != nil {
				return err
			}
			rec := &hotRecs[i]
			run := func(sys *sparqlopt.System) (int64, time.Duration, error) {
				start := time.Now()
				res, err := sys.Run(ctx, hq.text)
				if err != nil {
					return 0, 0, err
				}
				wall := time.Since(start)
				// A triggered migration lands before the next run, outside
				// the timed region.
				sys.WaitForMigrations()
				if !sameRowMatrix(res, want) {
					rec.Identical = false
				}
				rec.Rows = len(res.Rows)
				return res.ShuffledBytes(), wall, nil
			}
			// Alternate which system goes first: the trailing run inherits
			// the leader's GC debt (these queries materialize 10^5-row
			// results), and a fixed order would bill it all to one side.
			var sBytes, aBytes int64
			var sWall, aWall time.Duration
			if round%2 == 0 {
				sBytes, sWall, err = run(static)
				if err == nil {
					aBytes, aWall, err = run(adaptive)
				}
			} else {
				aBytes, aWall, err = run(adaptive)
				if err == nil {
					sBytes, sWall, err = run(static)
				}
			}
			if err != nil {
				return fmt.Errorf("%s round %d: %w", hq.name, round, err)
			}
			if round == 0 {
				rec.StaticBytesFirst, rec.AdaptiveBytesFirst = sBytes, aBytes
			}
			rec.StaticBytesLast, rec.AdaptiveBytesLast = sBytes, aBytes
			if round >= warmStart {
				warmStatic[hq.name] = append(warmStatic[hq.name], sWall)
				warmAdaptive[hq.name] = append(warmAdaptive[hq.name], aWall)
			}
		}
	}

	var allStatic, allAdaptive []time.Duration
	for i := range hotRecs {
		rec := &hotRecs[i]
		s, a := warmStatic[rec.Query], warmAdaptive[rec.Query]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		if len(s) > 0 {
			rec.StaticWarmP99Millis = percentileMillis(s, 0.99)
			rec.AdaptiveWarmP99Millis = percentileMillis(a, 0.99)
		}
		allStatic = append(allStatic, s...)
		allAdaptive = append(allAdaptive, a...)
		report.StaticSteadyBytes += rec.StaticBytesLast
		report.AdaptiveSteadyBytes += rec.AdaptiveBytesLast
		report.Records = append(report.Records, *rec)
	}
	sort.Slice(allStatic, func(i, j int) bool { return allStatic[i] < allStatic[j] })
	sort.Slice(allAdaptive, func(i, j int) bool { return allAdaptive[i] < allAdaptive[j] })
	if len(allStatic) > 0 {
		report.StaticWarmP99Millis = percentileMillis(allStatic, 0.99)
		report.AdaptiveWarmP99Millis = percentileMillis(allAdaptive, 0.99)
		if report.AdaptiveWarmP99Millis > 0 {
			report.WarmSpeedup = report.StaticWarmP99Millis / report.AdaptiveWarmP99Millis
		}
	}
	if report.StaticSteadyBytes > 0 {
		report.ShuffleReduction = 1 - float64(report.AdaptiveSteadyBytes)/float64(report.StaticSteadyBytes)
	}

	// Cold phase, after the migrations: queries outside the hot pattern
	// run on the migrated placement — min-of-k wall times, interleaved.
	report.WorstColdRegression = 1.0
	for _, name := range adaptiveColdQueries {
		q := lubm.Query(name)
		want, err := sparqlopt.Reference(ds, q)
		if err != nil {
			return err
		}
		rec := AdaptiveQueryRecord{Query: name, Kind: "cold", Identical: true}
		minS, minA := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for r := 0; r < coldRuns; r++ {
			for _, side := range []struct {
				sys *sparqlopt.System
				min *time.Duration
			}{{static, &minS}, {adaptive, &minA}} {
				start := time.Now()
				res, err := side.sys.RunQuery(ctx, q)
				if err != nil {
					return fmt.Errorf("cold %s: %w", name, err)
				}
				if wall := time.Since(start); wall < *side.min {
					*side.min = wall
				}
				if !sameRowMatrix(res, want) {
					rec.Identical = false
				}
				rec.Rows = len(res.Rows)
			}
		}
		rec.StaticWallSeconds = minS.Seconds()
		rec.AdaptiveWallSeconds = minA.Seconds()
		if minS > 0 {
			rec.ColdRatio = minA.Seconds() / minS.Seconds()
			if rec.ColdRatio > report.WorstColdRegression {
				report.WorstColdRegression = rec.ColdRatio
			}
		}
		report.Records = append(report.Records, rec)
	}

	st := adaptive.AdvisorStats()
	report.Migrations = st.Migrations
	report.MigratedTriples = st.MigratedTriples
	report.AlignedGroups = st.AlignedGroups
	report.ReplicationAfter = adaptive.ReplicationFactor()

	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Adaptive repartitioning (%s, %d nodes, %d rounds, LUBM %d universities)\n",
		methodName, cfg.nodes(), rounds, unis)
	fmt.Fprintln(w, "Query\tKind\tRows\tIdentical\tStaticB(last)\tAdaptiveB(last)\tStatic p99/wall\tAdaptive p99/wall")
	for _, r := range report.Records {
		if r.Kind == "hot" {
			fmt.Fprintf(w, "%s\thot\t%d\t%v\t%d\t%d\t%.2fms\t%.2fms\n",
				r.Query, r.Rows, r.Identical, r.StaticBytesLast, r.AdaptiveBytesLast,
				r.StaticWarmP99Millis, r.AdaptiveWarmP99Millis)
		} else {
			fmt.Fprintf(w, "%s\tcold\t%d\t%v\t\t\t%.3fs\t%.3fs (%.2fx)\n",
				r.Query, r.Rows, r.Identical, r.StaticWallSeconds, r.AdaptiveWallSeconds, r.ColdRatio)
		}
	}
	fmt.Fprintf(w, "migrations=%d triples=%d groups=%d; replication %.2f -> %.2f\n",
		report.Migrations, report.MigratedTriples, report.AlignedGroups,
		report.ReplicationBefore, report.ReplicationAfter)
	fmt.Fprintf(w, "steady shuffle %d B -> %d B (%.0f%% reduction); warm p99 %.2fms -> %.2fms (%.2fx); worst cold %.2fx\n",
		report.StaticSteadyBytes, report.AdaptiveSteadyBytes, 100*report.ShuffleReduction,
		report.StaticWarmP99Millis, report.AdaptiveWarmP99Millis, report.WarmSpeedup,
		report.WorstColdRegression)
	if err := w.Flush(); err != nil {
		return err
	}
	return cfg.writeReport("adaptive", report)
}

// sameRowMatrix compares serving-path results bit for bit.
func sameRowMatrix(a, b *sparqlopt.ExecResult) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}
