// Command benchrunner regenerates the tables and figures of the
// paper's evaluation section (§V), and runs the three serving
// experiments the benchmark spine (benchmark/) does not cover.
//
// Usage:
//
//	benchrunner [flags]
//
//	-experiment  which artifact to regenerate:
//	             table3 | table4 | table5 | table6 | table7 |
//	             fig6 | fig7 | fig8 | fig7and8 |
//	             ablation | costcheck | qerror | all
//	             (default all: the paper reproduction, everything
//	             above; ablation is this repo's extra study of the
//	             TD-CMDP pruning rules, costcheck and qerror check the
//	             cost model and the cardinality estimates against
//	             execution), or one serving experiment, by name only:
//	             obsoverhead | overload | failover
//	             (obsoverhead serves L1–L10 with observability on vs
//	             off; overload drives client fleets at 1x-8x of
//	             capacity against a gated system (admission control +
//	             memory budget) and an ungated one; failover kills one
//	             node mid-workload against a failover-enabled system
//	             and a twin without it, reporting success rate,
//	             degraded p99, recovery re-replication and time to full
//	             service. A full-scale
//	             run of one of these writes BENCH_<experiment>.json in
//	             the working directory; a -quick run writes no file.)
//	             Serving latency, throughput and per-layer cost are
//	             measured by the spine: bash benchmark/run.sh.
//	-timeout     per-optimizer-run cap (default 600s, the paper's cap;
//	             timed-out cells print N/A)
//	-quick       shrink datasets and instance counts for a fast pass
//	-nodes       simulated cluster size (default 10, as in the paper)
//	-seed        generator seed (default 1)
//	-csv         also write plot-ready CSV files into this directory
//	             (figures only)
//
// Examples:
//
//	benchrunner -experiment table7 -quick
//	benchrunner -experiment all -timeout 60s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sparqlopt/internal/bench"
)

// paper is the reproduction of the paper's evaluation, in the order
// "all" runs it.
var paper = []string{"table3", "table4", "table5", "table6", "table7", "fig6", "fig7and8", "ablation", "costcheck", "qerror"}

var experiments = map[string]func(bench.Config) error{
	"table3":      bench.Table3,
	"table4":      bench.Table4,
	"table5":      bench.Table5,
	"table6":      bench.Table6,
	"table7":      bench.Table7,
	"fig6":        bench.Fig6,
	"fig7":        bench.Fig7,
	"fig8":        bench.Fig8,
	"fig7and8":    bench.Fig7And8,
	"ablation":    bench.Ablation,
	"costcheck":   bench.CostModelCheck,
	"qerror":      bench.QError,
	"obsoverhead": bench.ObsOverheadBench,
	"overload":    bench.OverloadBench,
	"failover":    bench.FailoverBench,
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "table3|table4|table5|table6|table7|fig6|fig7|fig8|fig7and8|ablation|costcheck|qerror|all (= all of those), or obsoverhead|overload|failover")
		timeout    = flag.Duration("timeout", 0, "per-run optimization cap (0 = paper's 600s, or 3s with -quick)")
		quick      = flag.Bool("quick", false, "small datasets and instance counts")
		nodes      = flag.Int("nodes", 0, "simulated cluster size (0 = 10)")
		seed       = flag.Int64("seed", 1, "generator seed")
		csvDir     = flag.String("csv", "", "also write plot-ready CSV files into this directory (figures only)")
	)
	flag.Parse()

	cfg := bench.Config{
		Out:     os.Stdout,
		Timeout: *timeout,
		Quick:   *quick,
		Nodes:   *nodes,
		Seed:    *seed,
		CSVDir:  *csvDir,
	}

	run := func(name string) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := experiments[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, name := range paper {
			run(name)
		}
		return
	}
	if _, ok := experiments[*experiment]; !ok {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	run(*experiment)
}
