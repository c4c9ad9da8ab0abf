package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
)

// CostModelCheck reproduces the paper's §V-C validity argument: "most
// of the plans with the minimal estimated cost also have the lowest
// query processing time". For every benchmark query it optimizes with
// TD-Auto, MSC and DP-Bushy, executes all three plans, and reports
// whether the cheapest-by-estimate plan is also (near-)fastest. The
// summary line gives the agreement rate over all comparable pairs.
func CostModelCheck(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	queries := benchQueries(lubmDS, uniDS)
	algos := baseline.Select("td-auto", "msc", "dp-bushy")
	method := partition.HashSO{}

	engines := map[*rdf.Dataset]*engine.Engine{}
	for _, ds := range []*rdf.Dataset{lubmDS, uniDS} {
		placement, err := method.Partition(ds, cfg.nodes())
		if err != nil {
			return err
		}
		engines[ds] = engine.New(ds.Dict, placement)
	}

	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Cost-model validation (§V-C): estimated cost vs measured processing time")
	fmt.Fprintln(w, "Query\tAlgorithm\tEst. cost\tExec time\tCheapest=fastest?")
	agree, pairs := 0, 0
	for _, bq := range queries {
		type row struct {
			name string
			cost float64
			dur  time.Duration
			ok   bool
		}
		var rows []row
		for _, algo := range algos {
			in, err := dataInput(cfg, bq.ds, bq.q, method)
			if err != nil {
				return err
			}
			o := runOne(cfg, algo, in)
			if o.res == nil {
				rows = append(rows, row{name: algo.Name})
				continue
			}
			// Best of three runs, to damp sub-millisecond noise.
			var dur time.Duration
			ok := true
			for rep := 0; rep < 3; rep++ {
				ctx, cancel := context.WithTimeout(context.Background(), cfg.execTimeout())
				start := time.Now()
				_, err = engines[bq.ds].Execute(ctx, o.res.Plan, bq.q)
				d := time.Since(start)
				cancel()
				if err != nil {
					ok = false
					break
				}
				if rep == 0 || d < dur {
					dur = d
				}
			}
			rows = append(rows, row{name: algo.Name, cost: o.res.Plan.Cost, dur: dur, ok: ok})
		}
		// Find the minimal estimated cost and the fastest execution
		// among completed plans.
		best, fastest := -1, -1
		for i, r := range rows {
			if !r.ok {
				continue
			}
			if best < 0 || r.cost < rows[best].cost {
				best = i
			}
			if fastest < 0 || r.dur < rows[fastest].dur {
				fastest = i
			}
		}
		verdict := "N/A"
		if best >= 0 && fastest >= 0 {
			pairs++
			// Plans within 1% of the minimum estimate are co-minimal
			// (different optimizers often find the same-cost plan);
			// agreement means some co-minimal plan runs within 25% of
			// the overall fastest.
			bestDur := time.Duration(-1)
			for _, r := range rows {
				if r.ok && r.cost <= rows[best].cost*1.01 && (bestDur < 0 || r.dur < bestDur) {
					bestDur = r.dur
				}
			}
			if bestDur <= rows[fastest].dur+rows[fastest].dur/4 {
				agree++
				verdict = "yes"
			} else {
				verdict = "no"
			}
		}
		for i, r := range rows {
			mark := ""
			if i == len(rows)-1 {
				mark = verdict
			}
			if !r.ok {
				fmt.Fprintf(w, "%s\t%s\tN/A\tN/A\t%s\n", bq.name, r.name, mark)
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%.3E\t%.3fs\t%s\n", bq.name, r.name, r.cost, r.dur.Seconds(), mark)
		}
	}
	fmt.Fprintf(w, "agreement: %d/%d queries — the minimal-estimated-cost plan was (near-)fastest\n", agree, pairs)
	return w.Flush()
}
