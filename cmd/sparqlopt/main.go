// Command sparqlopt optimizes (and optionally executes) one SPARQL
// query over a partitioned RDF dataset, printing the chosen plan, its
// estimated cost and the search-space counters — the paper's
// optimizer, one query and one partitioning method per run.
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
//	-timeout    optimization cap (default 600s)
//	-demo       use a generated LUBM dataset and query L8
//
// Serving — many queries, the plan cache, metrics, traces, the
// slow-query log, memory budgets, row limits and node failover — is
// sparqld's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

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
		demo      = flag.Bool("demo", false, "run the built-in LUBM demo")
	)
	flag.Parse()
	if err := run(runConfig{
		dataPath: *dataPath, queryPath: *queryPath, algorithm: *algorithm,
		partName: *partName, nodes: *nodes, execute: *execute,
		explain: *explain, dot: *dot, timeout: *timeout, demo: *demo,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sparqlopt:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	dataPath, queryPath, algorithm, partName string
	nodes                                    int
	execute, explain, dot, demo              bool
	timeout                                  time.Duration
}

func run(cfg runConfig, w io.Writer) error {
	optimizer, err := baseline.ByName(cfg.algorithm)
	if err != nil {
		return err
	}
	method, err := partition.ByName(cfg.partName)
	if err != nil {
		return err
	}
	ds, q, err := load(cfg, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %d triples; query: %d triple patterns\n", ds.Len(), len(q.Patterns))
	views, err := querygraph.Build(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "query class: %s; join variables: %d; max degree: %d\n",
		views.Join.Classify(), views.Join.NumJoinVars(), views.Join.MaxVarDegree())

	st, err := stats.Collect(ds, q)
	if err != nil {
		return err
	}
	est, err := stats.NewEstimator(q, st)
	if err != nil {
		return err
	}
	in := &opt.Input{Query: q, Views: views, Est: est, Method: method, Params: cost.Default}
	in.Params.Nodes = cfg.nodes
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	start := time.Now()
	res, err := optimizer.Run(ctx, in)
	if err != nil {
		return err
	}
	label := cfg.algorithm
	if label == "td-auto" {
		label += " (ran " + res.Used.String() + ")"
	}
	fmt.Fprintf(w, "\noptimized with %s in %v: cost=%.4g cmds=%d plans=%d subqueries=%d\n\nplan:\n%s",
		label, time.Since(start).Round(time.Microsecond),
		res.Plan.Cost, res.Counter.CMDs, res.Counter.Plans, res.Counter.Subqueries, res.Plan.Format())
	if cfg.dot {
		fmt.Fprintf(w, "\n%s", res.Plan.DOT())
	}
	if !cfg.execute {
		return nil
	}

	placement, err := method.Partition(ds, cfg.nodes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\npartitioned with %s onto %d nodes (replication factor %.2f)\n",
		method.Name(), cfg.nodes, placement.ReplicationFactor(ds.Len()))
	start = time.Now()
	out, err := engine.New(ds.Dict, placement).Execute(context.Background(), res.Plan, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "executed in %v: %s\n", time.Since(start).Round(time.Microsecond), out)
	if cfg.explain && out.Trace != nil {
		fmt.Fprintf(w, "\nexecution trace:\n%s", out.Trace.Format())
	}
	printRows(w, ds, out.Rows, 10)
	return nil
}

// load reads the dataset and the query: -demo's LUBM-2 and L8, or the
// -data and -query files.
func load(cfg runConfig, w io.Writer) (*rdf.Dataset, *sparql.Query, error) {
	if cfg.demo {
		fmt.Fprintln(w, "generating LUBM demo dataset (2 universities)...")
		return lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true}), lubm.Query("L8"), nil
	}
	if cfg.dataPath == "" || cfg.queryPath == "" {
		return nil, nil, fmt.Errorf("need -data and -query, or -demo")
	}
	f, err := os.Open(cfg.dataPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ds, err := ntriples.Read(f)
	if err != nil {
		return nil, nil, err
	}
	src, err := os.ReadFile(cfg.queryPath)
	if err != nil {
		return nil, nil, err
	}
	q, err := sparql.Parse(string(src))
	return ds, q, err
}

// printRows prints the first limit rows, one tab-separated line each.
func printRows(w io.Writer, ds *rdf.Dataset, rows [][]rdf.TermID, limit int) {
	for _, row := range rows[:min(limit, len(rows))] {
		for j, id := range row {
			if j > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, ds.Dict.Term(id))
		}
		fmt.Fprintln(w)
	}
	if len(rows) > limit {
		fmt.Fprintf(w, "... (%d more)\n", len(rows)-limit)
	}
}
