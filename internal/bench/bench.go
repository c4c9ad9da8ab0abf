// Package bench regenerates every table and figure of the paper's
// evaluation (§V): optimization time (Table IV), query processing time
// (Table V), estimated plan costs (Table VI), search-space sizes
// (Table VII), the WatDiv stress test (Fig. 6), and the random-query
// study of optimization time and plan quality (Figs. 7–8).
//
// Absolute numbers differ from the paper's (their testbed was a
// 10-node Hadoop/RDF-3X cluster; ours is an in-process simulator) but
// the comparisons the paper draws — who wins, by what factor, where
// algorithms blow up — are reproduced. EXPERIMENTS.md records the
// paper-vs-measured comparison for every artifact.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// Config controls an experiment run. The zero value reproduces the
// paper's setup: 600 s optimization cap, 10 nodes, full scale.
type Config struct {
	// Out receives the formatted experiment output (default os.Stdout).
	Out io.Writer
	// Timeout caps each optimizer run; timeouts print as "N/A", like
	// the paper's Table IV/VII entries (default 600 s).
	Timeout time.Duration
	// ExecTimeout caps each plan execution in Table V (default 600 s).
	ExecTimeout time.Duration
	// Quick shrinks datasets and instance counts for smoke runs.
	Quick bool
	// Nodes is the simulated cluster size (default 10).
	Nodes int
	// Seed drives all generators (default 1).
	Seed int64
	// CSVDir, when set, makes the figure experiments additionally
	// write plot-ready CSV files into this directory.
	CSVDir string
}

// csvFile opens a CSV output file, or returns nil when CSVDir is
// unset. Callers must Close a non-nil result.
func (c Config) csvFile(name string) (*os.File, error) {
	if c.CSVDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(c.CSVDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(c.CSVDir, name))
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	if c.Quick {
		return 3 * time.Second
	}
	return 600 * time.Second
}

func (c Config) execTimeout() time.Duration {
	if c.ExecTimeout > 0 {
		return c.ExecTimeout
	}
	if c.Quick {
		return 30 * time.Second
	}
	return 600 * time.Second
}

func (c Config) nodes() int {
	if c.Nodes > 0 {
		return c.Nodes
	}
	return 10
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) params() cost.Params {
	p := cost.Default
	p.Nodes = c.nodes()
	return p
}

// Meta is the metadata block every BENCH_*.json report embeds, so
// bench trajectories stay comparable across PRs: the dataset knobs
// the run used.
type Meta struct {
	Quick bool  `json:"quick"`
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`
	// Adaptive records the advisor configuration of an adaptive-
	// repartitioning run; nil for every other experiment.
	Adaptive *AdaptiveMeta `json:"adaptive,omitempty"`
}

// AdaptiveMeta is the advisor configuration an adaptive run used —
// embedded in the report so its trigger knobs travel with the numbers
// they produced.
type AdaptiveMeta struct {
	Rounds           int   `json:"rounds"`
	MinShuffledBytes int64 `json:"min_shuffled_bytes"`
	MinQueries       int   `json:"min_queries"`
}

// meta describes this run's configuration.
func (c Config) meta() Meta {
	return Meta{Quick: c.Quick, Nodes: c.nodes(), Seed: c.seed()}
}

// writeReport saves a full-scale run's report as BENCH_<experiment>.json
// in the working directory — the checked-in artifacts are regenerated
// from the repo root. Quick runs are smoke passes and write nothing.
func (c Config) writeReport(experiment string, report any) error {
	if c.Quick {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + experiment + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(c.out(), "wrote %s\n", path)
	return nil
}

// outcome is one optimizer run.
type outcome struct {
	res      *opt.Result
	dur      time.Duration
	timedOut bool
	err      error
}

// runOne executes o on in under the configured timeout.
func runOne(cfg Config, o baseline.Optimizer, in *opt.Input) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout())
	defer cancel()
	start := time.Now()
	res, err := o.Run(ctx, in)
	dur := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{dur: dur, timedOut: true, err: err}
		}
		return outcome{dur: dur, err: err}
	}
	return outcome{res: res, dur: dur}
}

// makeInput assembles an optimizer input from a query and its stats.
func makeInput(cfg Config, q *sparql.Query, s *stats.Stats, m partition.Method) (*opt.Input, error) {
	views, err := querygraph.Build(q)
	if err != nil {
		return nil, err
	}
	est, err := stats.NewEstimator(q, s)
	if err != nil {
		return nil, err
	}
	return &opt.Input{Query: q, Views: views, Est: est, Params: cfg.params(), Method: m}, nil
}

// dataInput assembles an optimizer input with statistics collected
// from the dataset.
func dataInput(cfg Config, ds *rdf.Dataset, q *sparql.Query, m partition.Method) (*opt.Input, error) {
	s, err := stats.Collect(ds, q)
	if err != nil {
		return nil, err
	}
	return makeInput(cfg, q, s, m)
}

// fmtDur renders a duration the way the paper's tables do.
func fmtDur(o outcome) string {
	if o.timedOut {
		return "N/A"
	}
	if o.err != nil {
		return "err"
	}
	return fmt.Sprintf("%.3fs", o.dur.Seconds())
}

// fmtCost renders a plan cost in the paper's scientific notation.
func fmtCost(o outcome) string {
	if o.res == nil {
		return "N/A"
	}
	return fmt.Sprintf("%.2E", o.res.Plan.Cost)
}

// fmtCount renders a search-space size.
func fmtCount(o outcome, count func(*opt.Result) int64) string {
	if o.res == nil {
		return "N/A"
	}
	return fmt.Sprintf("%d", count(o.res))
}
