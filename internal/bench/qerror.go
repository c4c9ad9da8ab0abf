package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"text/tabwriter"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
)

// QError measures the quality of the cardinality estimator of
// appendix B: it executes the TD-Auto plan of every benchmark query
// with per-operator tracing and reports the q-error
// (max(est/actual, actual/est), computed over distinct rows) of every
// join operator. This is an extra study beyond the paper, explaining
// *why* the simple estimator suffices for plan ranking.
func QError(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	queries := benchQueries(lubmDS, uniDS)
	method := partition.HashSO
	engines := map[*rdf.Dataset]*engine.Engine{}
	for _, ds := range []*rdf.Dataset{lubmDS, uniDS} {
		placement, err := method.Partition(ds, cfg.nodes())
		if err != nil {
			return err
		}
		engines[ds] = engine.New(ds.Dict, placement)
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Cardinality estimation quality (appendix B): per-join q-error of TD-Auto plans")
	fmt.Fprintln(w, "Query\t#Joins\tMedian q-error\tMax q-error")
	var all []float64
	for _, bq := range queries {
		in, err := dataInput(cfg, bq.ds, bq.q, method)
		if err != nil {
			return err
		}
		o := runOne(cfg, baseline.Select("td-auto")[0], in)
		if o.res == nil {
			fmt.Fprintf(w, "%s\tN/A\tN/A\tN/A\n", bq.name)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), cfg.execTimeout())
		res, err := engines[bq.ds].Execute(ctx, o.res.Plan, bq.q)
		cancel()
		if err != nil {
			fmt.Fprintf(w, "%s\terr\t\t\n", bq.name)
			continue
		}
		var errs []float64
		var walk func(tr *engine.TraceNode)
		walk = func(tr *engine.TraceNode) {
			if len(tr.Children) > 0 { // join operators only
				errs = append(errs, qerr(tr.EstimatedCard, float64(tr.OutputRows)))
			}
			for _, ch := range tr.Children {
				walk(ch)
			}
		}
		walk(res.Trace)
		sort.Float64s(errs)
		all = append(all, errs...)
		if len(errs) == 0 {
			fmt.Fprintf(w, "%s\t0\t-\t-\n", bq.name)
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\n", bq.name, len(errs), errs[len(errs)/2], errs[len(errs)-1])
	}
	sort.Float64s(all)
	if len(all) > 0 {
		fmt.Fprintf(w, "overall\t%d\t%.2f\t%.2f\n", len(all), all[len(all)/2], all[len(all)-1])
	}
	return w.Flush()
}

// qerr is the standard q-error with a +1 smoothing for empty results.
func qerr(est, actual float64) float64 {
	est++
	actual++
	return math.Max(est/actual, actual/est)
}
