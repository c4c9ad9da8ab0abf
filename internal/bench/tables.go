package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/randquery"
	"sparqlopt/internal/workload/uniprot"
)

// benchQuery is one named benchmark query bound to its dataset.
type benchQuery struct {
	name string
	q    *sparql.Query
	ds   *rdf.Dataset
}

// datasets builds (and the caller reuses) the two benchmark datasets.
func (c Config) datasets() (lubmDS, uniDS *rdf.Dataset) {
	lcfg := lubm.Config{Universities: 7, Seed: c.seed(), Compact: c.Quick}
	ucfg := uniprot.Config{Proteins: 3000, Seed: c.seed()}
	if c.Quick {
		ucfg.Proteins = 400
	}
	return lubm.Generate(lcfg), uniprot.Generate(ucfg)
}

// benchQueries lists L1–L10 and U1–U5 in the paper's Table III order
// (grouped star, chain, tree, dense).
func benchQueries(lubmDS, uniDS *rdf.Dataset) []benchQuery {
	order := []struct{ name string }{
		{"L1"}, {"U1"}, {"L2"}, {"U2"}, {"L3"}, {"L4"}, {"L5"}, {"L6"},
		{"U3"}, {"U4"}, {"U5"}, {"L7"}, {"L8"}, {"L9"}, {"L10"},
	}
	var out []benchQuery
	for _, o := range order {
		if o.name[0] == 'L' {
			out = append(out, benchQuery{o.name, lubm.Query(o.name), lubmDS})
		} else {
			out = append(out, benchQuery{o.name, uniprot.Query(o.name), uniDS})
		}
	}
	return out
}

// Table3 prints the query inventory (paper Table III).
func Table3(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table III: Queries")
	fmt.Fprintln(w, "Query\tType\t#Triple Patterns")
	for _, bq := range benchQueries(lubmDS, uniDS) {
		jg, err := querygraph.NewJoinGraph(bq.q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%d\n", bq.name, jg.Classify(), len(bq.q.Patterns))
	}
	return w.Flush()
}

// Table4 prints query optimization time for the benchmark queries
// (paper Table IV): TD-Auto vs MSC vs DP-Bushy under hash partitioning.
func Table4(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	queries := benchQueries(lubmDS, uniDS)
	algos := baseline.Select("td-auto", "msc", "dp-bushy")
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table IV: Query Optimization Time (LUBM and UniProt queries)")
	header := "Algorithm"
	for _, bq := range queries {
		header += "\t" + bq.name
	}
	fmt.Fprintln(w, header)
	for _, algo := range algos {
		row := algo.Name
		for _, bq := range queries {
			in, err := dataInput(cfg, bq.ds, bq.q, partition.HashSO)
			if err != nil {
				return err
			}
			row += "\t" + fmtDur(runOne(cfg, algo, in))
		}
		fmt.Fprintln(w, row)
	}
	return w.Flush()
}

// Table5 prints query processing time on the simulated cluster (paper
// Table V): Hash-SO × {TD-Auto, MSC, DP-Bushy}, then 2f and Path-BMC
// with TD-Auto (only the partition-aware optimizer can use them).
func Table5(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	queries := benchQueries(lubmDS, uniDS)
	type rowSpec struct {
		part partition.Method
		algo baseline.Optimizer
	}
	algos := baseline.Select("td-auto", "msc", "dp-bushy")
	rows := []rowSpec{
		{partition.HashSO, algos[0]},
		{partition.HashSO, algos[1]},
		{partition.HashSO, algos[2]},
		{partition.TwoHopForward, algos[0]},
		{partition.PathBMC, algos[0]},
	}
	// Partition each dataset once per method.
	engines := map[string]map[*rdf.Dataset]*engine.Engine{}
	for _, r := range rows {
		if engines[r.part.Name()] != nil {
			continue
		}
		engines[r.part.Name()] = map[*rdf.Dataset]*engine.Engine{}
		for _, ds := range []*rdf.Dataset{lubmDS, uniDS} {
			placement, err := r.part.Partition(ds, cfg.nodes())
			if err != nil {
				return err
			}
			engines[r.part.Name()][ds] = engine.New(ds.Dict, placement)
		}
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table V: Query Processing Time (LUBM and UniProt queries)")
	header := "Partitioning\tAlgorithm"
	for _, bq := range queries {
		header += "\t" + bq.name
	}
	fmt.Fprintln(w, header)
	for _, r := range rows {
		line := r.part.Name() + "\t" + r.algo.Name
		for _, bq := range queries {
			in, err := dataInput(cfg, bq.ds, bq.q, r.part)
			if err != nil {
				return err
			}
			o := runOne(cfg, r.algo, in)
			if o.res == nil {
				line += "\tN/A"
				continue
			}
			e := engines[r.part.Name()][bq.ds]
			ctx, cancel := context.WithTimeout(context.Background(), cfg.execTimeout())
			start := time.Now()
			_, err = e.Execute(ctx, o.res.Plan, bq.q)
			dur := time.Since(start)
			cancel()
			switch {
			case err != nil && ctx.Err() != nil:
				line += "\t>cap"
			case err != nil:
				line += "\terr"
			default:
				line += fmt.Sprintf("\t%.3fs", dur.Seconds())
			}
		}
		fmt.Fprintln(w, line)
	}
	return w.Flush()
}

// Table6 prints the estimated cost of the chosen plans (paper Table VI).
func Table6(cfg Config) error {
	lubmDS, uniDS := cfg.datasets()
	queries := benchQueries(lubmDS, uniDS)
	algos := baseline.Select("td-auto", "msc", "dp-bushy")
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table VI: Estimated cost of the generated query plans")
	header := "Algorithm"
	for _, bq := range queries {
		header += "\t" + bq.name
	}
	fmt.Fprintln(w, header)
	for _, algo := range algos {
		row := algo.Name
		for _, bq := range queries {
			in, err := dataInput(cfg, bq.ds, bq.q, partition.HashSO)
			if err != nil {
				return err
			}
			row += "\t" + fmtCost(runOne(cfg, algo, in))
		}
		fmt.Fprintln(w, row)
	}
	return w.Flush()
}

// Table7 prints the search-space sizes (paper Table VII): the number
// of join operators each algorithm enumerates on random chain, cycle,
// tree and dense queries of 8, 16 and 30 triple patterns. A quick pass
// keeps the polynomial chain and cycle columns at every size but only
// the 8-pattern tree and dense cells: the larger ones run most
// algorithms into the cap, so they would cost the cap each and print
// N/A.
func Table7(cfg Config) error {
	type cell struct {
		class querygraph.Class
		n     int
	}
	var cells []cell
	for _, cl := range []querygraph.Class{querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense} {
		for _, n := range []int{8, 16, 30} {
			if cfg.Quick && n > 8 && (cl == querygraph.Tree || cl == querygraph.Dense) {
				continue
			}
			cells = append(cells, cell{cl, n})
		}
	}
	algos := baseline.Select("msc", "dp-bushy", "td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto")
	// MSC's search space is the number of complete flat plans explored;
	// the others count enumerated join operators.
	countOf := func(name string) func(*opt.Result) int64 {
		if name == "MSC" {
			return func(r *opt.Result) int64 { return r.Counter.Plans }
		}
		return func(r *opt.Result) int64 { return r.Counter.CMDs }
	}
	w := tabwriter.NewWriter(cfg.out(), 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table VII: Size of Search Space")
	header := "#Triple Patterns"
	for _, c := range cells {
		header += fmt.Sprintf("\t%s-%d", c.class, c.n)
	}
	fmt.Fprintln(w, header)
	for _, algo := range algos {
		row := algo.Name
		for _, c := range cells {
			q, s := randquery.Generate(c.class, c.n, cfg.seed())
			in, err := makeInput(cfg, q, s, partition.HashSO)
			if err != nil {
				return err
			}
			row += "\t" + fmtCount(runOne(cfg, algo, in), countOf(algo.Name))
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w, "(counts: enumerated join operators; MSC: explored flat plans; N/A: timed out)")
	return w.Flush()
}
