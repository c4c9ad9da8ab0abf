package bench

import (
	"context"
	"fmt"
	"text/tabwriter"

	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/workload/randquery"
)

// Ablation quantifies each TD-CMDP pruning rule in isolation
// (DESIGN.md §6): for star, tree and dense queries it reports the
// search-space size and the plan-cost penalty (relative to the TD-CMD
// optimum) of every rule combination. Rule 1 restricts k>2 divisions
// to ccmds, Rule 2 drops k>2 broadcast joins, Rule 3 short-circuits
// local subqueries.
func Ablation(cfg Config) error {
	combos := []struct {
		name string
		o    opt.Options
	}{
		{"none (TD-CMD)", opt.Options{}},
		{"rule1", opt.Options{PruneCCMD: true}},
		{"rule2", opt.Options{BinaryBroadcastOnly: true}},
		{"rule3", opt.Options{LocalShortcut: true}},
		{"rule1+2", opt.Options{PruneCCMD: true, BinaryBroadcastOnly: true}},
		{"all (TD-CMDP)", opt.CMDPOptions()},
	}
	cases := []struct {
		class querygraph.Class
		n     int
	}{
		{querygraph.Star, 10},
		{querygraph.Tree, 12},
		{querygraph.Dense, 10},
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Ablation: TD-CMDP pruning rules (search space and cost penalty vs TD-CMD)")
	fmt.Fprintln(w, "Rules\tQuery\tCMDs\tPlans\tCost ratio")
	for _, c := range cases {
		q, s := randquery.Generate(c.class, c.n, cfg.seed())
		var optimum float64
		for _, combo := range combos {
			in, err := makeInput(cfg, q, s, partition.HashSO)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout())
			res, err := opt.OptimizeWithOptions(ctx, in, combo.o)
			cancel()
			if err != nil {
				fmt.Fprintf(w, "%s\t%s-%d\tN/A\tN/A\tN/A\n", combo.name, c.class, c.n)
				continue
			}
			if combo.name == "none (TD-CMD)" {
				optimum = res.Plan.Cost
			}
			ratio := res.Plan.Cost / optimum
			fmt.Fprintf(w, "%s\t%s-%d\t%d\t%d\t%.3f\n",
				combo.name, c.class, c.n, res.Counter.CMDs, res.Counter.Plans, ratio)
		}
	}
	return w.Flush()
}
