// Benchmarks regenerating each table and figure of the paper's
// evaluation. Every BenchmarkTableN / BenchmarkFigN target wraps the
// corresponding experiment runner (internal/bench) in its quick
// configuration; `cmd/benchrunner` runs the same experiments at full
// scale with printed output. Micro-benchmarks at the bottom measure
// the enumeration core itself (the paper's Θ(|V_T|) amortized-cost
// claim).
package sparqlopt_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"sparqlopt"
	"sparqlopt/internal/bench"
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/race"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/randquery"
	"sparqlopt/internal/workload/watdiv"
)

// mustEstimator mirrors the in-package test helper; this file lives in
// the external test package so internal/bench (which imports the root
// package) stays importable without a cycle.
func mustEstimator(tb testing.TB, q *sparql.Query, s *stats.Stats) *stats.Estimator {
	tb.Helper()
	est, err := stats.NewEstimator(q, s)
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

func quickBenchConfig() bench.Config {
	return bench.Config{Out: io.Discard, Quick: true, Timeout: 2 * time.Second, Nodes: 4, Seed: 1}
}

// BenchmarkTable4_OptimizationTime regenerates paper Table IV.
func BenchmarkTable4_OptimizationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(quickBenchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5_ProcessingTime regenerates paper Table V.
func BenchmarkTable5_ProcessingTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table5(quickBenchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6_PlanCost regenerates paper Table VI.
func BenchmarkTable6_PlanCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table6(quickBenchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7_SearchSpace regenerates paper Table VII.
func BenchmarkTable7_SearchSpace(b *testing.B) {
	cfg := quickBenchConfig()
	cfg.Timeout = 500 * time.Millisecond // N/A the exploding cells fast
	for i := 0; i < b.N; i++ {
		if err := bench.Table7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6a_WatDivOptTime regenerates paper Fig. 6 (both panels).
func BenchmarkFig6a_WatDivOptTime(b *testing.B) {
	cfg := quickBenchConfig()
	cfg.Timeout = 500 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_OptTimeBySize regenerates paper Figs. 7 and 8 in one
// measurement pass. The full sweep's largest join graphs take minutes
// under the race detector's instrumentation, so -race runs skip it.
func BenchmarkFig7_OptTimeBySize(b *testing.B) {
	if race.Enabled {
		b.Skip("skipping the huge Fig. 7 join-graph sizes under -race")
	}
	cfg := quickBenchConfig()
	cfg.Timeout = 500 * time.Millisecond
	for i := 0; i < b.N; i++ {
		if err := bench.Fig7And8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures cold plan enumeration: unpruned TD-CMD on
// the largest WatDiv/Fig.7-style random join graphs, and TD-Auto on L9
// and L10 under 2f with LUBM-10 statistics (the cold-plan spine
// workload's two TD-CMDP plans). Every case records into one
// opt.Instruments, as sparqld does. L10-2f-parallel has GOMAXPROCS
// callers (at least two), each with its own estimator, share it, as
// sparqld's serving goroutines do. allocs/op tracks the hot path's
// allocation diet.
func BenchmarkOptimize(b *testing.B) {
	shapes := []struct {
		name  string
		class querygraph.Class
		n     int
	}{
		{"tree24", querygraph.Tree, 24},
		{"dense13", querygraph.Dense, 13},
		{"cycle24", querygraph.Cycle, 24},
	}
	if race.Enabled {
		// The instrumented build is ~10× slower; keep the shape mix but
		// shrink the graphs so -race benchmark runs stay bounded.
		shapes = []struct {
			name  string
			class querygraph.Class
			n     int
		}{
			{"tree14", querygraph.Tree, 14},
			{"dense10", querygraph.Dense, 10},
			{"cycle14", querygraph.Cycle, 14},
		}
	}
	inst := opt.NewInstruments(obs.NewRegistry())
	run := func(name string, in *opt.Input, algo opt.Algorithm) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Optimize(context.Background(), in, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, sh := range shapes {
		q, s := randquery.Generate(sh.class, sh.n, 11)
		views, err := querygraph.Build(q)
		if err != nil {
			b.Fatal(err)
		}
		run(sh.name, &opt.Input{Query: q, Views: views, Est: mustEstimator(b, q, s),
			Params: sparqlopt.DefaultCostParams(), Method: partition.HashSO{}, Inst: inst}, opt.TDCMD)
	}
	m, err := sparqlopt.PartitionMethod("2f")
	if err != nil {
		b.Fatal(err)
	}
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	lubmInput := func(name string) (*opt.Input, *stats.Stats) {
		q := lubm.Query(name)
		st, err := stats.Collect(ds, q)
		if err != nil {
			b.Fatal(err)
		}
		views, err := querygraph.Build(q)
		if err != nil {
			b.Fatal(err)
		}
		return &opt.Input{Query: q, Views: views, Est: mustEstimator(b, q, st),
			Params: sparqlopt.DefaultCostParams(), Method: m, Inst: inst}, st
	}
	l9, _ := lubmInput("L9")
	run("L9-2f", l9, opt.TDAuto)
	l10, st10 := lubmInput("L10")
	run("L10-2f", l10, opt.TDAuto)
	b.Run("L10-2f-parallel", func(b *testing.B) {
		b.ReportAllocs()
		if runtime.GOMAXPROCS(0) < 2 {
			b.SetParallelism(2)
		}
		b.RunParallel(func(pb *testing.PB) {
			// Each caller estimates on its own, as each sparqld request
			// does; only the Instruments are shared.
			in := *l10
			est, err := stats.NewEstimator(in.Query, st10)
			if err != nil {
				b.Error(err)
				return
			}
			in.Est = est
			for pb.Next() {
				if _, err := opt.Optimize(context.Background(), &in, opt.TDAuto); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkAblation_PruningRules runs the TD-CMDP rule ablation
// (DESIGN.md §6).
func BenchmarkAblation_PruningRules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Ablation(quickBenchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateCMDs measures the amortized cost per enumerated
// connected multi-division on the four query classes (the paper's
// Lemma 3: Θ(|V_T|) per cmd).
func BenchmarkEnumerateCMDs(b *testing.B) {
	for _, tc := range []struct {
		name  string
		class querygraph.Class
		n     int
	}{
		{"chain16", querygraph.Chain, 16},
		{"cycle16", querygraph.Cycle, 16},
		{"star12", querygraph.Star, 12},
		{"tree12", querygraph.Tree, 12},
		{"dense10", querygraph.Dense, 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q, _ := randquery.Generate(tc.class, tc.n, 1)
			jg, err := querygraph.NewJoinGraph(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				opt.ConnMultiDivision(jg, jg.All(), false, func(opt.CMD) bool {
					total++
					return true
				})
			}
			b.ReportMetric(float64(total)/float64(b.N), "cmds/op")
		})
	}
}

// BenchmarkOptimizeTDCMD measures full plan enumeration per algorithm
// on a 12-pattern tree query.
func BenchmarkOptimizeTDCMD(b *testing.B) {
	for _, algo := range []opt.Algorithm{opt.TDCMD, opt.TDCMDP, opt.HGRTDCMD, opt.TDAuto} {
		b.Run(algo.String(), func(b *testing.B) {
			q, s := randquery.Generate(querygraph.Tree, 12, 3)
			views, err := querygraph.Build(q)
			if err != nil {
				b.Fatal(err)
			}
			est := mustEstimator(b, q, s)
			in := &opt.Input{Query: q, Views: views, Est: est, Params: sparqlopt.DefaultCostParams(), Method: partition.HashSO{}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := opt.Optimize(context.Background(), in, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalCheck measures maximal-local-query containment checks
// (the paper's Θ(|V_Q|) claim, appendix A).
func BenchmarkLocalCheck(b *testing.B) {
	q := lubm.Query("L10")
	g := querygraph.NewGraph(q)
	checker := partition.NewLocalChecker(partition.HashSO{}, g)
	set := bitset.Of(0, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.IsLocal(set)
	}
}

// BenchmarkExecute measures plan execution alone — optimization runs
// once outside the timed loop — on LUBM L1–L10 and bound WatDiv
// templates. ReportAllocs tracks the data plane's allocation diet
// (integer-hash joins + arena-backed relations); run with -cpu 1,N to
// see what the per-node workers gain from N cores.
func BenchmarkExecute(b *testing.B) {
	type workload struct {
		tag string
		ds  *sparqlopt.Dataset
		qs  []struct {
			name string
			q    *sparqlopt.Query
		}
	}
	var loads []workload
	lds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true})
	wl := workload{tag: "LUBM", ds: lds}
	for _, name := range lubm.QueryNames {
		wl.qs = append(wl.qs, struct {
			name string
			q    *sparqlopt.Query
		}{name, lubm.Query(name)})
	}
	loads = append(loads, wl)
	wds := watdiv.GenerateData(watdiv.DataConfig{Scale: 300, Seed: 1})
	ww := workload{tag: "WatDiv", ds: wds}
	for _, t := range watdiv.Templates(1) {
		if t.Query == nil || len(t.Query.Patterns) < 2 {
			continue
		}
		// Binding can disconnect the join graph; skip those templates.
		q := t.Bind(wds, 1)
		if jg, err := querygraph.NewJoinGraph(q); err != nil || !jg.Connected(jg.All()) {
			continue
		}
		ww.qs = append(ww.qs, struct {
			name string
			q    *sparqlopt.Query
		}{fmt.Sprintf("W%d", t.ID), q})
		if len(ww.qs) == 3 {
			break
		}
	}
	loads = append(loads, ww)
	for _, wl := range loads {
		sys, err := sparqlopt.Open(wl.ds, sparqlopt.WithNodes(4))
		if err != nil {
			b.Fatal(err)
		}
		for _, bq := range wl.qs {
			res, err := sys.OptimizeQuery(context.Background(), bq.q, sparqlopt.WithAlgorithm(sparqlopt.TDAuto))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(wl.tag+"/"+bq.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Execute(context.Background(), res.Plan, bq.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPointRead measures the spine's two point reads — P1, one
// subject-bound pattern, and P2, a subject-bound pattern joined to a
// large one — through RunStream with the plan cache warm, on LUBM-2
// under hash-so over 10 nodes: eight students each, in turn. A point
// read returns a few rows, so what it pays beyond them is fixed per
// query — goroutines per operator, the stream's chunk buffer, per-node
// bookkeeping — and allocs/op and B/op are where that shows.
func BenchmarkPointRead(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1})
	m, err := sparqlopt.PartitionMethod("hash-so")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithMethod(m), sparqlopt.WithNodes(10), sparqlopt.WithPlanCache(64))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	read := func(b *testing.B, query string) int {
		rows, err := sys.RunStream(ctx, query)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
		return n
	}
	const prefixes = "PREFIX ub: <" + lubm.UB + ">\n"
	for _, kind := range []struct{ name, text string }{
		{"P1", "SELECT ?c WHERE { <%s> ub:takesCourse ?c . }"},
		{"P2", "SELECT ?f ?d WHERE { <%s> ub:advisor ?f . ?f ub:worksFor ?d . }"},
	} {
		var queries []string
		for i := 0; i < 8; i++ {
			student := fmt.Sprintf("http://www.Department%d.University%d.edu/GraduateStudent%d", i%4, i%2, i)
			q := prefixes + fmt.Sprintf(kind.text, student)
			// Warms the plan cache and checks the student has an answer.
			if read(b, q) == 0 {
				b.Fatalf("%s for %s returns no rows", kind.name, student)
			}
			queries = append(queries, q)
		}
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read(b, queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkColdPlan measures the cold-planning path the way a served
// request without a plan cache pays it: LUBM-2 under 2f on 10 nodes,
// L7, L9 and L10 through Run, so each op collects statistics,
// enumerates the plan (L10 is ≈155k join operators under TD-CMDP) and
// executes it. L7 owns cold-plan's median latency, and its statistics
// were most of its planning until the tracker answered them; allocs/op
// of L9/L10 is mostly the enumerator's.
func BenchmarkColdPlan(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1})
	m, err := sparqlopt.PartitionMethod("2f")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithMethod(m), sparqlopt.WithNodes(10))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, name := range []string{"L7", "L9", "L10"} {
		src := lubm.QueryText(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd measures optimize+execute of a benchmark query on
// the simulated cluster.
func BenchmarkEndToEnd(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(4))
	if err != nil {
		b.Fatal(err)
	}
	q := lubm.QueryText("L2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(context.Background(), q, sparqlopt.WithAlgorithm(sparqlopt.TDAuto)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCached measures the full serving path — parse, plan,
// execute — for repeated queries with the plan cache on and off. The
// cached rows are identical; the delta is pure planning overhead
// (statistics collection + enumeration) that the cache removes.
func BenchmarkRunCached(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	for _, mode := range []struct {
		name string
		opts []sparqlopt.Option
	}{
		{"uncached", nil},
		{"cached", []sparqlopt.Option{sparqlopt.WithPlanCache(64)}},
	} {
		sys, err := sparqlopt.Open(ds, append([]sparqlopt.Option{sparqlopt.WithNodes(4)}, mode.opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"L1", "L2", "L7", "L9"} {
			src := lubm.QueryText(name)
			// Prime the cache so the cached variant measures the warm
			// path, not the first miss.
			if _, err := sys.Run(context.Background(), src, sparqlopt.WithAlgorithm(sparqlopt.TDAuto)); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", mode.name, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Run(context.Background(), src, sparqlopt.WithAlgorithm(sparqlopt.TDAuto)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
