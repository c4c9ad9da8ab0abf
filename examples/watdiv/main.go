// WatDiv stress test: optimize a diverse template workload with every
// algorithm and summarize optimization time and plan quality — a
// miniature of the paper's Fig. 6.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/watdiv"
)

func main() {
	templates := flag.Int("templates", 30, "number of templates to use (max 124)")
	instances := flag.Int("instances", 10, "instances per template")
	flag.Parse()

	algos := baseline.Select("td-cmd", "td-cmdp", "td-auto", "msc", "dp-bushy")
	totalTime := make([]time.Duration, len(algos))
	ratios := make([][]float64, len(algos))

	tmpls := watdiv.Templates(1)
	if *templates < len(tmpls) {
		tmpls = tmpls[:*templates]
	}
	runs := 0
	for _, tpl := range tmpls {
		for inst := 0; inst < *instances; inst++ {
			q, s := tpl.Instantiate(int64(tpl.ID*1000 + inst))
			views, err := querygraph.Build(q)
			if err != nil {
				log.Fatal(err)
			}
			est, err := stats.NewEstimator(q, s)
			if err != nil {
				log.Fatal(err)
			}
			runs++
			var optimal float64
			for ai, a := range algos {
				in := &opt.Input{Query: q, Views: views, Est: est,
					Params: cost.Default, Method: partition.HashSO{}}
				start := time.Now()
				res, err := a.Run(context.Background(), in)
				if err != nil {
					log.Fatalf("template %d %s: %v", tpl.ID, a.Name, err)
				}
				totalTime[ai] += time.Since(start)
				if a.Name == "TD-CMD" {
					optimal = res.Plan.Cost
				} else if optimal > 0 {
					ratios[ai] = append(ratios[ai], res.Plan.Cost/optimal)
				}
			}
		}
	}

	fmt.Printf("WatDiv-style stress test: %d templates x %d instances = %d queries\n\n",
		len(tmpls), *instances, runs)
	fmt.Printf("%-10s %14s %14s %14s\n", "algorithm", "total opt time", "median ratio", "worst ratio")
	for ai, a := range algos {
		med, worst := "-", "-"
		if len(ratios[ai]) > 0 {
			rs := append([]float64{}, ratios[ai]...)
			sort.Float64s(rs)
			med = fmt.Sprintf("%.3f", rs[len(rs)/2])
			worst = fmt.Sprintf("%.3f", rs[len(rs)-1])
		}
		fmt.Printf("%-10s %14v %14s %14s\n", a.Name,
			totalTime[ai].Round(time.Millisecond), med, worst)
	}
	fmt.Println("\nratios are plan cost relative to TD-CMD's optimum (1.000 = optimal).")
	fmt.Println("the heuristics stay near 1 while MSC's flat plans drift higher (paper Fig. 6b).")
}
