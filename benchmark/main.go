// Command benchmark is the repository's one performance suite: four
// named workloads, each against a system under test in its own process
// (the real sparqld over a loopback socket, or a child driving the
// library API), measured end to end with no benchmark spans, and a
// traced replay in this process that times the calls into each layer.
// See README.md.
//
//	bash benchmark/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0   # one run, as the driver asks
//	bash benchmark/run.sh -seed 1 -runs 5 -out a.json                            # the whole suite
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -write-golden
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

const (
	defaultScale = 10 // LUBM universities, ≈144k triples (README, "Scale")
	runSeconds   = 15 // BENCHMARK.json's run_seconds, and the default window
	clients      = 2  // closed-loop connections; fixed so the load shape does not follow the machine
	runDeadline  = 170 * time.Second
)

// options are the command line.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	root       string
	quick      bool
	runs       int
	out        string
	compare    bool
	golden     string
	wantGolden bool
	child      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the sampled constants and the request schedule")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, no spans; 1: per-layer metrics from the traced replay")
	flag.StringVar(&o.root, "root", "..", "repository checkout (default: the parent of the working directory, as under go run -C benchmark)")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: LUBM-2, 2 s windows, one set-up per run")
	flag.IntVar(&o.runs, "runs", 3, "suite mode: end-to-end runs per workload")
	flag.StringVar(&o.out, "out", "", "suite mode: report file (default benchmark/out/report-seed<seed>.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two suite reports: -compare a.json b.json")
	flag.BoolVar(&o.wantGolden, "write-golden", false, "rewrite benchmark/golden/seed1.json from sparqlopt.Reference")
	flag.StringVar(&o.golden, "golden", "", "golden answers (default benchmark/golden/seed1.json)")
	flag.StringVar(&o.child, "child", "", "internal: run as the library system under test")
	flag.Parse()

	ok, err := true, error(nil)
	switch {
	case o.child != "":
		err = childMain(o.child)
	case o.compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		var worse bool
		worse, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		ok = !worse
	default:
		var e *env
		if e, err = newEnv(o); err != nil {
			break
		}
		if o.workload != "" {
			ok, err = e.runOne(o.workload, o.trace == 1)
		} else {
			ok, err = e.runSuite(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// newEnv builds sparqld and generates the dataset.
func newEnv(o options) (*env, error) {
	e := &env{seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		warmup: time.Second, setups: 5, conns: clients, log: os.Stdout}
	scale := defaultScale
	if o.quick {
		scale, e.window, e.setups = 2, 2*time.Second, 1
	}
	if o.wantGolden {
		e.seed, e.useRef, e.setups, e.window = goldenSeed, true, 1, 2*time.Second
	}
	var err error
	if e.root, err = filepath.Abs(o.root); err != nil {
		return nil, err
	}
	e.outDir = filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	if e.self, err = os.Executable(); err != nil {
		return nil, err
	}
	e.sparqld = filepath.Join(e.outDir, "bin", "sparqld")
	build := exec.Command("go", "build", "-o", e.sparqld, "./cmd/sparqld")
	build.Dir = e.root
	if b, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building sparqld: %v\n%s", err, b)
	}
	e.goldenPath = o.golden
	if e.goldenPath == "" {
		e.goldenPath = filepath.Join(e.root, "benchmark", "golden", "seed1.json")
	}
	if !o.wantGolden {
		if e.golden, err = loadGolden(e.goldenPath); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	if e.data, err = prepareDataset(e.outDir, scale); err != nil {
		return nil, err
	}
	e.meta().print(e.log)
	e.logf("dataset ready in %.1fs: %s", since(t), e.data.Path)
	return e, nil
}

// runOne makes the one run the driver asks for and ends standard output
// with its result line.
func (e *env) runOne(workload string, trace bool) (bool, error) {
	w, ok := workloadByName(workload)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rep, _, err := e.runWorkload(ctx, w, trace)
	if err != nil {
		return false, err
	}
	e.logf("%s (trace %v):", w.name, trace)
	rep.print(e.log)
	fmt.Println(rep.resultLine())
	return rep.Correct, nil
}

// runSuite runs every workload, o.runs end-to-end runs and one traced
// run each, and writes the report; with -write-golden it writes the
// golden answers instead. The end-to-end runs go round by round over the
// workloads, not workload by workload, so that each workload's runs are
// spread over the whole suite: the machine's speed moves in phases of
// minutes, which then show in every workload's spread (and at worst in
// an `unresolved`) and not as a shifted median of one of them.
func (e *env) runSuite(o options) (bool, error) {
	suite := suiteReport{Meta: e.meta(), EndToEnd: endToEnd, PerLayer: perLayer}
	wreps := make([]workloadReport, len(workloads))
	e2e := make([][]map[string]float64, len(workloads))
	for i, w := range workloads {
		wreps[i] = workloadReport{Name: w.name, Why: w.why, Correct: true}
	}
	for round := 0; round < o.runs && !o.wantGolden; round++ {
		for i, w := range workloads {
			rep, _, err := e.runWorkload(context.Background(), w, false)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			e.logf("%s run %d/%d:", w.name, round+1, o.runs)
			rep.print(e.log)
			e2e[i] = append(e2e[i], rep.Metrics)
			wreps[i].absorb(rep)
		}
	}
	golden := map[string][]request{}
	allOK := true
	for i, w := range workloads {
		// Golden answers need the verified requests, not the replay.
		rep, reqs, err := e.runWorkload(context.Background(), w, !o.wantGolden)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		e.logf("%s traced run:", w.name)
		rep.print(e.log)
		printShares(e.log, w.library, rep.Metrics)
		wreps[i].absorb(rep)
		wreps[i].EndToEnd, wreps[i].PerLayer = summarize(e2e[i]), rep.Metrics
		golden[w.name] = reqs
		allOK = allOK && wreps[i].Correct
	}
	suite.Workloads = wreps
	if o.wantGolden {
		if !allOK {
			return false, fmt.Errorf("not writing golden answers: a workload disagreed with sparqlopt.Reference")
		}
		e.logf("writing %s", e.goldenPath)
		return true, writeGolden(e.goldenPath, e.data, e.seed, golden)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(e.outDir, fmt.Sprintf("report-seed%d.json", e.seed))
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return false, err
	}
	e.logf("report: %s", out)
	return allOK, os.WriteFile(out, append(data, '\n'), 0o644)
}

func (w *workloadReport) absorb(r *runReport) {
	// The suite fails a workload whose layers do not add up; one run on
	// its own only says so (runReport.SelfCheck).
	w.Correct = w.Correct && r.Correct && r.SelfCheck == ""
	if r.SelfCheck != "" {
		w.Failures = append(w.Failures, r.SelfCheck)
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Notes = append(w.Notes, r.Notes...)
	w.Failures = append(w.Failures, r.Failures...)
}

// runWorkload makes one run of w. With trace off it reports the
// end-to-end metrics of a run in which the benchmark records no spans;
// with trace on it reports the per-layer metrics: the run's own counters
// (one set-up, same window) plus the traced replay, whose spans it
// writes to benchmark/out/spans-<workload>.json.
func (e *env) runWorkload(ctx context.Context, w workloadDef, trace bool) (*runReport, []request, error) {
	reqs, sched, err := e.prepare(w)
	if err != nil {
		return nil, nil, err
	}
	setups := e.setups
	if trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run needs one instance
	}
	var wr *windowResult
	if w.library {
		wr, err = e.runLibrary(ctx, w, reqs, sched, setups)
	} else {
		wr, err = e.runHTTP(ctx, w, reqs, sched, setups)
	}
	if err != nil {
		return nil, nil, err
	}
	rep := &runReport{Workload: w.name, Trace: trace, Failures: wr.failures,
		Attempted: wr.verified + len(wr.samples) + wr.batches, Failed: len(wr.failures)}
	rep.Correct = rep.Failed == 0 && len(wr.samples) > 0
	rep.Notes = append(rep.Notes, "oracle: "+e.source)
	if len(wr.samples) == 0 { // warm-up found wrong answers: nothing was timed
		rep.Metrics = map[string]float64{}
		return rep, reqs, nil
	}
	n := 0
	for _, s := range wr.samples {
		if s.OK {
			n++
		}
	}
	if beyond := samplesBeyond(n, 95); beyond < minBeyond {
		rep.Notes = append(rep.Notes, fmt.Sprintf("latency_p95_ms rests on %d samples with only %d beyond it (want %d): highest supported percentile is p%g",
			n, beyond, minBeyond, supportedTail(n)))
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("latency percentiles over %d samples, %d beyond p95", n, beyond))
	}
	if rep.Correct {
		own := measuredOwners(w, wr, 50, 95)
		rep.Notes = append(rep.Notes, fmt.Sprintf("p50 falls in %s (%.1f points from the next kind), p95 in %s (%.1f points)",
			own[0].Kind, own[0].Margin, own[1].Kind, own[1].Margin))
	}
	side := runSideMetrics(w, wr)
	var perKind []string
	for _, k := range kindNames {
		if v, ok := side["client.kind."+k+".p50_ms"]; ok {
			perKind = append(perKind, fmt.Sprintf("%s %.2f", k, v))
		}
	}
	rep.Notes = append(rep.Notes, "per-kind p50 ms: "+strings.Join(perKind, ", "))
	if !trace {
		rep.Metrics = endToEndMetrics(wr)
		return rep, reqs, nil
	}
	rep.Metrics = side
	if !rep.Correct {
		return rep, reqs, nil
	}
	layers, spans, notes, err := e.replay(ctx, w, reqs, median(wr.setups))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range layers {
		rep.Metrics[k] = v
	}
	rep.Notes = append(rep.Notes, notes...)
	spanPath := filepath.Join(e.outDir, "spans-"+w.name+".json")
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans in %s", len(spans), spanPath))
	rep.Notes = append(rep.Notes, fmt.Sprintf("unattributed: set-up %.3f s, system %.1f us, write %.1f us",
		layers["setup.unattributed_s"], layers["system.unattributed_us"], layers["system.write_unattributed_us"]))
	for _, d := range perLayer { // a layer the workload does not reach reads 0
		if _, ok := rep.Metrics[d.Name]; !ok {
			rep.Metrics[d.Name] = 0
		}
	}
	if r, u := layers["replay.layer_sum_ratio"], layers["replay.unattributed_share"]; r > ratioHi || u > unattributedHi {
		rep.SelfCheck = fmt.Sprintf("self-check: replay.layer_sum_ratio %.3f (at most %.2f), replay.unattributed_share %.3f (at most %.2f)",
			r, ratioHi, u, unattributedHi)
	}
	return rep, reqs, nil
}
