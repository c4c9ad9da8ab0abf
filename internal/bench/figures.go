package bench

import (
	"fmt"
	"sort"
	"text/tabwriter"
	"time"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/workload/randquery"
	"sparqlopt/internal/workload/watdiv"
)

// ratioThresholds are the x-axis points of the cumulative frequency
// plots (Figs. 6b and 8).
var ratioThresholds = []float64{1.0, 1.5, 2, 4, 8}

// Fig6 reproduces the WatDiv stress test: per-template mean
// optimization time (Fig. 6a) and the cumulative frequency
// distribution of plan-cost ratios against TD-CMD (Fig. 6b).
func Fig6(cfg Config) error {
	instances := watdiv.QueriesPerTemplate
	if cfg.Quick {
		instances = 5
	}
	templates := watdiv.Templates(cfg.seed())
	algos := baseline.Select("td-cmd", "td-cmdp", "hgr-td-cmd", "msc", "dp-bushy", "td-auto")
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Figure 6a: WatDiv optimization time per template (mean over %d instances, seconds)\n", instances)
	header := "Template\t#TP"
	for _, a := range algos {
		header += "\t" + a.Name
	}
	fmt.Fprintln(w, header)

	ratios := map[string][]float64{}
	for _, tpl := range templates {
		sums := make([]time.Duration, len(algos))
		counts := make([]int, len(algos))
		for inst := 0; inst < instances; inst++ {
			q, s := tpl.Instantiate(cfg.seed()*100000 + int64(tpl.ID*1000+inst))
			var base outcome
			for ai, algo := range algos {
				in, err := makeInput(cfg, q, s, partition.HashSO)
				if err != nil {
					return err
				}
				o := runOne(cfg, algo, in)
				if o.res != nil {
					sums[ai] += o.dur
					counts[ai]++
				}
				if algo.Name == "TD-CMD" {
					base = o
				} else if base.res != nil && o.res != nil {
					ratios[algo.Name] = append(ratios[algo.Name], o.res.Plan.Cost/base.res.Plan.Cost)
				}
			}
		}
		row := fmt.Sprintf("T%03d\t%d", tpl.ID, len(tpl.Query.Patterns))
		for ai := range algos {
			if counts[ai] == 0 {
				row += "\tN/A"
			} else {
				row += fmt.Sprintf("\t%.4f", (sums[ai] / time.Duration(counts[ai])).Seconds())
			}
		}
		fmt.Fprintln(w, row)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeRatioCSV(cfg, "fig6b.csv", ratios); err != nil {
		return err
	}
	return printCumulative(cfg, "Figure 6b: cumulative frequency of plan-cost ratio to TD-CMD (WatDiv)", ratios)
}

// randGrid holds the shared measurements behind Figs. 7 and 8.
type randGrid struct {
	classes   []querygraph.Class
	sizes     []int
	instances int
	algos     []baseline.Optimizer
	// times[class][size][algo] = mean seconds over completed runs (-1 when none).
	times map[querygraph.Class]map[int][]float64
	// ratios[class][algo.Name] = cost ratios vs TD-CMD.
	ratios map[querygraph.Class]map[string][]float64
}

// collectRandGrid runs the random-query study once for both figures.
func collectRandGrid(cfg Config) (*randGrid, error) {
	g := &randGrid{
		classes:   []querygraph.Class{querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense},
		instances: 3,
		algos:     baseline.Select("td-cmd", "td-cmdp", "hgr-td-cmd", "msc", "dp-bushy", "td-auto"),
		times:     map[querygraph.Class]map[int][]float64{},
		ratios:    map[querygraph.Class]map[string][]float64{},
	}
	maxSize := 30
	if cfg.Quick {
		maxSize = 12
	}
	for n := 2; n <= maxSize; n += 2 {
		g.sizes = append(g.sizes, n)
	}
	for _, cl := range g.classes {
		g.times[cl] = map[int][]float64{}
		g.ratios[cl] = map[string][]float64{}
		for _, n := range g.sizes {
			if cl == querygraph.Cycle && n < 3 {
				continue
			}
			sums := make([]float64, len(g.algos))
			counts := make([]int, len(g.algos))
			for inst := 0; inst < g.instances; inst++ {
				q, s := randquery.Generate(cl, n, cfg.seed()+int64(inst*7919))
				var base outcome
				for ai, algo := range g.algos {
					in, err := makeInput(cfg, q, s, partition.HashSO)
					if err != nil {
						return nil, err
					}
					o := runOne(cfg, algo, in)
					if o.res != nil {
						sums[ai] += o.dur.Seconds()
						counts[ai]++
					}
					if algo.Name == "TD-CMD" {
						base = o
					} else if base.res != nil && o.res != nil {
						g.ratios[cl][algo.Name] = append(g.ratios[cl][algo.Name], o.res.Plan.Cost/base.res.Plan.Cost)
					}
				}
			}
			means := make([]float64, len(g.algos))
			for ai := range g.algos {
				if counts[ai] == 0 {
					means[ai] = -1
				} else {
					means[ai] = sums[ai] / float64(counts[ai])
				}
			}
			g.times[cl][n] = means
		}
	}
	return g, nil
}

// Fig7 prints optimization time versus query size for each class
// (paper Fig. 7a–d).
func Fig7(cfg Config) error {
	g, err := collectRandGrid(cfg)
	if err != nil {
		return err
	}
	return g.printTimes(cfg)
}

// Fig8 prints the cumulative cost-ratio distributions per class
// (paper Fig. 8a–d).
func Fig8(cfg Config) error {
	g, err := collectRandGrid(cfg)
	if err != nil {
		return err
	}
	return g.printRatios(cfg)
}

// Fig7And8 shares one measurement pass across both figures.
func Fig7And8(cfg Config) error {
	g, err := collectRandGrid(cfg)
	if err != nil {
		return err
	}
	if err := g.printTimes(cfg); err != nil {
		return err
	}
	return g.printRatios(cfg)
}

func (g *randGrid) printTimes(cfg Config) error {
	for _, cl := range g.classes {
		csv, err := cfg.csvFile(fmt.Sprintf("fig7_%s.csv", cl))
		if err != nil {
			return err
		}
		if csv != nil {
			fmt.Fprint(csv, "tp")
			for _, a := range g.algos {
				fmt.Fprintf(csv, ",%s", a.Name)
			}
			fmt.Fprintln(csv)
			for _, n := range g.sizes {
				means, ok := g.times[cl][n]
				if !ok {
					continue
				}
				fmt.Fprintf(csv, "%d", n)
				for _, m := range means {
					if m < 0 {
						fmt.Fprint(csv, ",")
					} else {
						fmt.Fprintf(csv, ",%g", m)
					}
				}
				fmt.Fprintln(csv)
			}
			if err := csv.Close(); err != nil {
				return err
			}
		}
		w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "Figure 7 (%s): optimization time in seconds (mean of %d instances)\n", cl, g.instances)
		header := "#TP"
		for _, a := range g.algos {
			header += "\t" + a.Name
		}
		fmt.Fprintln(w, header)
		for _, n := range g.sizes {
			means, ok := g.times[cl][n]
			if !ok {
				continue
			}
			row := fmt.Sprintf("%d", n)
			for _, m := range means {
				if m < 0 {
					row += "\tN/A"
				} else {
					row += fmt.Sprintf("\t%.4f", m)
				}
			}
			fmt.Fprintln(w, row)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (g *randGrid) printRatios(cfg Config) error {
	for _, cl := range g.classes {
		if err := printCumulative(cfg,
			fmt.Sprintf("Figure 8 (%s): cumulative frequency of plan-cost ratio to TD-CMD", cl),
			g.ratios[cl]); err != nil {
			return err
		}
		if err := writeRatioCSV(cfg, fmt.Sprintf("fig8_%s.csv", cl), g.ratios[cl]); err != nil {
			return err
		}
	}
	return nil
}

// writeRatioCSV dumps the raw cost ratios (one row per plan) for
// external plotting of the cumulative distributions.
func writeRatioCSV(cfg Config, name string, ratios map[string][]float64) error {
	csv, err := cfg.csvFile(name)
	if err != nil || csv == nil {
		return err
	}
	defer csv.Close()
	fmt.Fprintln(csv, "algorithm,ratio")
	var names []string
	for n := range ratios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, r := range ratios[n] {
			fmt.Fprintf(csv, "%s,%g\n", n, r)
		}
	}
	return nil
}

// printCumulative renders a cumulative-frequency table: for each
// algorithm, the fraction of plans whose cost is within the threshold
// times TD-CMD's optimum.
func printCumulative(cfg Config, title string, ratios map[string][]float64) error {
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, title)
	header := "Algorithm\t#Plans"
	for _, x := range ratioThresholds {
		header += fmt.Sprintf("\t≤%gx", x)
	}
	fmt.Fprintln(w, header)
	var names []string
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := ratios[name]
		sort.Float64s(rs)
		row := fmt.Sprintf("%s\t%d", name, len(rs))
		for _, x := range ratioThresholds {
			count := sort.SearchFloat64s(rs, x+1e-9)
			frac := 0.0
			if len(rs) > 0 {
				frac = float64(count) / float64(len(rs))
			}
			row += fmt.Sprintf("\t%.0f%%", frac*100)
		}
		fmt.Fprintln(w, row)
	}
	return w.Flush()
}
