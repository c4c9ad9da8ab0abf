// Command sparqlopt optimizes (and optionally executes) a SPARQL query
// over a partitioned RDF dataset, printing the chosen plan, its
// estimated cost and the search-space statistics.
//
// Usage:
//
//	sparqlopt -data data.nt -query query.rq [flags]
//	sparqlopt -demo [flags]                 # built-in LUBM demo
//
//	-data       N-Triples file to load
//	-query      file containing one SELECT query
//	-algorithm  td-cmd | td-cmdp | hgr-td-cmd | td-auto | greedy |
//	            msc | dp-bushy | binary-dp   (default td-auto)
//	-partition  hash-so | 2f | 2fb | path-bmc | un-1hop (default hash-so)
//	-nodes      simulated cluster size (default 10)
//	-execute    run the plan on the simulated cluster and print results
//	-explain    with -execute: print the per-operator execution trace
//	-dot        print the plan in Graphviz dot syntax
//	-repl       interactive mode: read ';'-terminated queries from stdin
//	-timeout    optimization cap (default 600s)
//	-plancache  capacity of the serving-path plan cache in query
//	            fingerprints (0 = disabled). Repeated query shapes in
//	            -repl mode are then served from cached plan templates
//	            (identical results, no re-optimization); applies to the
//	            td-* algorithms, baselines always optimize fresh
//	-trace      print the query-lifecycle trace tree after each query
//	-metrics    dump the Prometheus metrics exposition on exit
//	-slowlog    slow-query threshold; queries at or over it (and all
//	            failures) are printed from the slow-query log on exit
//	            (0 = disabled)
//	-limit      with -execute: stop each query after this many result
//	            rows (0 = unlimited); the same option every serving
//	            surface accepts (sparqld and the HTTP ?limit= parameter)
//	-mem-budget per-query budget in bytes for materialized relations
//	            and optimizer memo state; queries that would exceed it
//	            degrade to cheaper plans or fail with a typed budget
//	            error instead of exhausting the process (0 = unlimited)
//	-adaptive   enable the adaptive repartitioning advisor: repeated
//	            repartition-heavy query shapes (best seen in -repl
//	            mode with -plancache) trigger background migrations
//	            that co-locate the hot triple groups; advisor counters
//	            print on exit. Applies to the td-* algorithms
//	-decay-half-life  with -adaptive: halve each group's accumulated
//	            shuffle weight every N observed queries, so migrations
//	            track the current workload and cold groups expire
//	            (0 = accumulate forever)
//	-demo       use a generated LUBM dataset and query L8
//
// The observability flags (-trace, -metrics, -slowlog) route through
// the library's serving path and therefore apply to the td-*
// algorithms; the baseline optimizers run outside it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sparqlopt"
	"sparqlopt/internal/baseline"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/ntriples"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "N-Triples file")
		queryPath = flag.String("query", "", "SPARQL query file")
		algorithm = flag.String("algorithm", "td-auto", "optimization algorithm")
		partName  = flag.String("partition", "hash-so", "data partitioning method")
		nodes     = flag.Int("nodes", 10, "simulated cluster size")
		execute   = flag.Bool("execute", false, "execute the plan")
		explain   = flag.Bool("explain", false, "with -execute: print the per-operator execution trace")
		dot       = flag.Bool("dot", false, "print the plan in Graphviz dot syntax")
		timeout   = flag.Duration("timeout", 600*time.Second, "optimization cap")
		planCache = flag.Int("plancache", 0, "serving-path plan cache capacity in query fingerprints (0 = disabled)")
		trace     = flag.Bool("trace", false, "print the query-lifecycle trace tree after each query")
		metrics   = flag.Bool("metrics", false, "dump the Prometheus metrics exposition on exit")
		slowlog   = flag.Duration("slowlog", 0, "slow-query threshold for the slow-query log (0 = disabled)")
		demo      = flag.Bool("demo", false, "run the built-in LUBM demo")
		repl      = flag.Bool("repl", false, "interactive mode: read queries from stdin (use with -data or -demo)")
		memBudget = flag.Int64("mem-budget", 0, "per-query memory budget in bytes for materialized state (0 = unlimited)")
		limit     = flag.Int64("limit", 0, "with -execute: stop each query after this many result rows (0 = unlimited)")
		adaptive  = flag.Bool("adaptive", false, "enable the adaptive repartitioning advisor (migrates hot triple groups as the workload repeats; advisor stats print on exit)")
		decay     = flag.Int("decay-half-life", 0, "advisor accumulator half-life in observed queries: shuffle weights halve every N queries and cold groups expire (0 = no decay; with -adaptive)")
	)
	flag.Parse()
	if err := run(runConfig{
		dataPath: *dataPath, queryPath: *queryPath, algorithm: *algorithm,
		partName: *partName, nodes: *nodes, execute: *execute,
		explain: *explain, dot: *dot, timeout: *timeout, demo: *demo,
		repl: *repl, planCache: *planCache,
		trace: *trace, metrics: *metrics, slowlog: *slowlog,
		memBudget: *memBudget, limit: *limit, adaptive: *adaptive,
		decayHalfLife: *decay,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sparqlopt:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	dataPath, queryPath, algorithm, partName string
	nodes                                    int
	planCache                                int
	execute, explain, dot, demo, repl        bool
	trace, metrics                           bool
	slowlog                                  time.Duration
	timeout                                  time.Duration
	memBudget                                int64
	limit                                    int64
	adaptive                                 bool
	decayHalfLife                            int
}

// observing reports whether any observability flag is set.
func (cfg runConfig) observing() bool {
	return cfg.trace || cfg.metrics || cfg.slowlog > 0
}

func run(cfg runConfig) error {
	dataPath, queryPath := cfg.dataPath, cfg.queryPath
	algorithm, partName := cfg.algorithm, cfg.partName
	demo := cfg.demo
	var ds *rdf.Dataset
	var q *sparql.Query
	switch {
	case demo:
		fmt.Println("generating LUBM demo dataset (2 universities)...")
		ds = lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true})
		q = lubm.Query("L8")
	case cfg.repl && dataPath != "":
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = ntriples.Read(f)
		if err != nil {
			return err
		}
	case dataPath != "" && queryPath != "":
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, err = ntriples.Read(f)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(queryPath)
		if err != nil {
			return err
		}
		q, err = sparql.Parse(string(src))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -data and -query, or -demo, or -repl -data")
	}
	method, err := partition.ByName(partName)
	if err != nil {
		return err
	}
	algo, served := sparqlopt.AlgorithmByName(algorithm)
	if cfg.observing() && !served {
		fmt.Fprintf(os.Stderr, "note: -trace/-metrics/-slowlog apply to the td-* algorithms, not %q\n", algorithm)
	}
	if cfg.repl {
		return replLoop(cfg, ds, method, algo, served)
	}
	fmt.Printf("dataset: %d triples; query: %d triple patterns\n", ds.Len(), len(q.Patterns))
	views, err := querygraph.Build(q)
	if err != nil {
		return err
	}
	fmt.Printf("query class: %s; join variables: %d; max degree: %d\n",
		views.Join.Classify(), views.Join.NumJoinVars(), views.Join.MaxVarDegree())
	if served {
		return runServed(cfg, ds, method, algo, q)
	}
	return runBaseline(cfg, ds, method, q)
}

// runServed routes one query through the library's serving path, which
// carries the observability layer (metrics, trace, slow-query log).
func runServed(cfg runConfig, ds *rdf.Dataset, method partition.Method, algo opt.Algorithm, q *sparql.Query) error {
	sys, err := openSystem(cfg, ds, method)
	if err != nil {
		return err
	}
	runOpts, printTrace := callOptions(cfg, algo)
	ctx := context.Background()
	start := time.Now()
	if !cfg.execute {
		res, err := sys.OptimizeQuery(ctx, q, runOpts...)
		if err != nil {
			return err
		}
		fmt.Printf("\noptimized in %v: %s\n\nplan:\n%s", time.Since(start).Round(time.Microsecond), res, res.Plan.Format())
		if cfg.dot {
			fmt.Printf("\n%s", res.Plan.DOT())
		}
		printTrace()
		return finishObserved(cfg, sys)
	}
	fmt.Printf("partitioning with %s onto %d nodes (replication factor %.2f)...\n",
		method.Name(), cfg.nodes, sys.ReplicationFactor())
	out, err := sys.RunQuery(ctx, q, runOpts...)
	if err != nil {
		printTrace()
		finishObserved(cfg, sys)
		return err
	}
	fmt.Printf("\n%v: %s\n", time.Since(start).Round(time.Microsecond), out)
	fmt.Printf("\nplan:\n%s", out.Opt.Plan.Format())
	if cfg.dot {
		fmt.Printf("\n%s", out.Opt.Plan.DOT())
	}
	if cfg.explain && out.Trace != nil {
		fmt.Printf("\nexecution trace:\n%s", out.Trace.Format())
	}
	printRows(ds, out.Rows, 10)
	printTrace()
	return finishObserved(cfg, sys)
}

// openSystem builds the serving-path System for the td-* algorithms.
func openSystem(cfg runConfig, ds *rdf.Dataset, method partition.Method) (*sparqlopt.System, error) {
	opts := []sparqlopt.Option{
		sparqlopt.WithMethod(method),
		sparqlopt.WithNodes(cfg.nodes),
	}
	if cfg.planCache > 0 {
		opts = append(opts, sparqlopt.WithPlanCache(cfg.planCache))
	}
	if cfg.memBudget > 0 {
		opts = append(opts, sparqlopt.WithMemoryBudget(cfg.memBudget, 0))
	}
	if cfg.adaptive {
		opts = append(opts, sparqlopt.WithAdaptivePartitioning(sparqlopt.AdaptiveConfig{
			DecayHalfLife: cfg.decayHalfLife,
		}))
	}
	if cfg.metrics || cfg.slowlog > 0 {
		var obsOpts []sparqlopt.ObsOption
		if cfg.slowlog > 0 {
			obsOpts = append(obsOpts, sparqlopt.WithSlowQueryLog(64, cfg.slowlog))
		}
		opts = append(opts, sparqlopt.WithObservability(obsOpts...))
	}
	return sparqlopt.Open(ds, opts...)
}

// callOptions assembles the per-call RunOptions; the returned func
// prints the trace collected by the most recent call (a no-op without
// -trace).
func callOptions(cfg runConfig, algo opt.Algorithm) ([]sparqlopt.RunOption, func()) {
	runOpts := []sparqlopt.RunOption{
		sparqlopt.WithAlgorithm(algo),
		sparqlopt.WithDeadline(cfg.timeout),
	}
	if cfg.limit > 0 {
		runOpts = append(runOpts, sparqlopt.WithLimit(cfg.limit))
	}
	var last *sparqlopt.Trace
	if cfg.trace {
		runOpts = append(runOpts, sparqlopt.WithTraceSink(func(t *sparqlopt.Trace) { last = t }))
	}
	return runOpts, func() {
		if last != nil {
			fmt.Printf("\n%s", last.Format())
			last = nil
		}
	}
}

// finishObserved dumps the exit-time observability artifacts.
func finishObserved(cfg runConfig, sys *sparqlopt.System) error {
	if cfg.adaptive {
		sys.WaitForMigrations()
		st := sys.AdvisorStats()
		fmt.Printf("\nadaptive advisor: %d queries observed, %d groups tracked, %d migrations (%d triples, %d groups aligned), replication factor %.2f\n",
			st.ObservedQueries, st.TrackedGroups, st.Migrations, st.MigratedTriples, st.AlignedGroups, sys.ReplicationFactor())
		if st.DecayHalfLife > 0 {
			fmt.Printf("adaptive decay: half-life %d queries, %d cold groups expired\n",
				st.DecayHalfLife, st.ExpiredGroups)
		}
	}
	if cfg.slowlog > 0 {
		entries := sys.SlowQueries()
		fmt.Printf("\nslow-query log (%d entries at/over %v):\n", len(entries), cfg.slowlog)
		for _, e := range entries {
			fmt.Println(" ", e)
		}
	}
	if cfg.metrics {
		fmt.Println("\nmetrics:")
		return sys.WriteMetrics(os.Stdout)
	}
	return nil
}

// runBaseline optimizes with one of the baseline algorithms (outside
// the serving path) and optionally executes the plan directly.
func runBaseline(cfg runConfig, ds *rdf.Dataset, method partition.Method, q *sparql.Query) error {
	res, optDur, err := optimizeBaseline(cfg, ds, method, q)
	if err != nil {
		return err
	}
	fmt.Printf("\noptimized with %s in %v: %s\n\nplan:\n%s",
		cfg.algorithm, optDur.Round(time.Microsecond), res, res.Plan.Format())
	if cfg.dot {
		fmt.Printf("\n%s", res.Plan.DOT())
	}
	if !cfg.execute {
		return nil
	}
	fmt.Printf("\npartitioning with %s onto %d nodes...\n", method.Name(), cfg.nodes)
	placement, err := method.Partition(ds, cfg.nodes)
	if err != nil {
		return err
	}
	fmt.Printf("replication factor: %.2f\n", placement.ReplicationFactor(ds.Len()))
	e := engine.New(ds.Dict, placement)
	start := time.Now()
	out, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		return err
	}
	fmt.Printf("executed in %v: %s\n", time.Since(start).Round(time.Microsecond), out)
	if cfg.explain && out.Trace != nil {
		fmt.Printf("\nexecution trace:\n%s", out.Trace.Format())
	}
	printRows(ds, out.Rows, 10)
	return nil
}

func printRows(ds *rdf.Dataset, rows [][]rdf.TermID, limit int) {
	if limit > len(rows) {
		limit = len(rows)
	}
	for i := 0; i < limit; i++ {
		for j, id := range rows[i] {
			if j > 0 {
				fmt.Print("\t")
			}
			fmt.Print(ds.Dict.Term(id))
		}
		fmt.Println()
	}
	if len(rows) > limit {
		fmt.Printf("... (%d more)\n", len(rows)-limit)
	}
}

// optimizeBaseline runs one of the baseline algorithms (msc,
// dp-bushy, binary-dp) on q outside the serving path, with statistics
// collected over ds, under the -timeout cap. It returns the time the
// optimization took.
func optimizeBaseline(cfg runConfig, ds *rdf.Dataset, method partition.Method, q *sparql.Query) (*opt.Result, time.Duration, error) {
	st, err := stats.Collect(ds, q)
	if err != nil {
		return nil, 0, err
	}
	est, err := stats.NewEstimator(q, st)
	if err != nil {
		return nil, 0, err
	}
	in := &opt.Input{Query: q, Est: est, Method: method, Params: cost.Default}
	in.Params.Nodes = cfg.nodes
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	start := time.Now()
	var res *opt.Result
	switch cfg.algorithm {
	case "msc":
		res, err = baseline.MSC(ctx, in)
	case "dp-bushy":
		res, err = baseline.DPBushy(ctx, in)
	case "binary-dp":
		res, err = baseline.BinaryDP(ctx, in)
	default:
		err = fmt.Errorf("unknown algorithm %q", cfg.algorithm)
	}
	return res, time.Since(start), err
}

// replLoop reads SPARQL queries from stdin (terminated by a line
// containing just ';'), optimizing and executing each against the
// partitioned dataset. The td-* algorithms serve through the library's
// System (plan cache, metrics, traces, slow-query log); baselines
// optimize and execute directly.
func replLoop(cfg runConfig, ds *rdf.Dataset, method partition.Method, algo opt.Algorithm, served bool) error {
	fmt.Printf("dataset: %d triples; partitioning with %s onto %d nodes...\n", ds.Len(), method.Name(), cfg.nodes)
	var (
		sys        *sparqlopt.System
		runOpts    []sparqlopt.RunOption
		printTrace func()
		e          *engine.Engine
		err        error
	)
	if served {
		sys, err = openSystem(cfg, ds, method)
		if err != nil {
			return err
		}
		runOpts, printTrace = callOptions(cfg, algo)
		if cfg.planCache > 0 {
			fmt.Printf("plan cache: %d fingerprints\n", cfg.planCache)
		}
	} else {
		placement, err := method.Partition(ds, cfg.nodes)
		if err != nil {
			return err
		}
		e = engine.New(ds.Dict, placement)
	}
	fmt.Println("enter a SPARQL query followed by a line containing only ';' (ctrl-D to quit):")
	sc := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	prompt := func() { fmt.Print("sparql> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != ";" {
			buf.WriteString(line)
			buf.WriteByte('\n')
			continue
		}
		src := buf.String()
		buf.Reset()
		if strings.TrimSpace(src) == "" {
			prompt()
			continue
		}
		if served {
			err = replServed(ds, sys, src, runOpts, printTrace)
		} else {
			err = replBaseline(cfg, ds, e, method, src)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
		prompt()
	}
	fmt.Println()
	if served {
		if err := finishObserved(cfg, sys); err != nil {
			return err
		}
	}
	return sc.Err()
}

func replServed(ds *rdf.Dataset, sys *sparqlopt.System, src string, runOpts []sparqlopt.RunOption, printTrace func()) error {
	start := time.Now()
	out, err := sys.Run(context.Background(), src, runOpts...)
	if err != nil {
		printTrace()
		return err
	}
	fmt.Printf("%v: %s (%s)\n", time.Since(start).Round(time.Microsecond), out, out.Opt)
	printRows(ds, out.Rows, 20)
	printTrace()
	return nil
}

func replBaseline(cfg runConfig, ds *rdf.Dataset, e *engine.Engine, method partition.Method, src string) error {
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	res, optDur, err := optimizeBaseline(cfg, ds, method, q)
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		return err
	}
	fmt.Printf("%v: %s (optimized in %v: %s)\n",
		time.Since(start).Round(time.Microsecond), out, optDur.Round(time.Microsecond), res)
	printRows(ds, out.Rows, 20)
	return nil
}
