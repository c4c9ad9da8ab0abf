package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// meta says what was measured, on what, so that two reports can be told
// apart before their numbers are compared.
type meta struct {
	Schema     int                 `json:"schema"`
	Time       string              `json:"time"`
	Commit     string              `json:"commit"`
	Dirty      bool                `json:"dirty"`
	GoVersion  string              `json:"go_version"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	NumCPU     int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	CPUModel   string              `json:"cpu_model"`
	Kernel     string              `json:"kernel"`
	Scale      int                 `json:"lubm_universities"`
	Triples    int                 `json:"triples"`
	FileDigest string              `json:"file_digest"`
	Seed       int64               `json:"seed"`
	WindowS    float64             `json:"window_s"`
	WarmupS    float64             `json:"warmup_s"`
	Setups     int                 `json:"setups_per_run"`
	Clients    int                 `json:"closed_loop_clients"`
	SUT        map[string][]string `json:"sut_flags"`
}

func (e *env) meta() meta {
	m := meta{Schema: schemaVersion, Time: time.Now().UTC().Format(time.RFC3339),
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: e.data.Scale, Triples: e.data.ds.Len(), FileDigest: e.data.Digest, Seed: e.seed,
		WindowS: e.window.Seconds(), WarmupS: e.warmup.Seconds(), Setups: e.setups, Clients: e.conns,
		SUT: map[string][]string{}}
	// The driver's checkout is not a git repository; then the commit
	// stays "unknown".
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "-C", e.root, "status", "--porcelain").Output()
		m.Dirty = len(strings.TrimSpace(string(st))) > 0
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	for _, w := range workloads {
		if w.library {
			m.SUT[w.name] = []string{"child", "ntriples.Read", "sparqlopt.Open", "WithMethod(" + w.partition + ")",
				"WithNodes(10)", fmt.Sprintf("WithPlanCache(%d)", w.planCache), "WithObservability()"}
		} else {
			m.SUT[w.name] = append([]string{"sparqld"}, sparqldArgs(w, "<file>")...)
		}
	}
	return m
}

func (m meta) print(w io.Writer) {
	dirty := ""
	if m.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "meta: schema %d commit %s%s %s %s/%s nproc %d GOMAXPROCS %d\n", m.Schema, m.Commit, dirty,
		m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS)
	fmt.Fprintf(w, "meta: cpu %q kernel %s\n", m.CPUModel, m.Kernel)
	fmt.Fprintf(w, "meta: LUBM-%d %d triples sha256 %s seed %d\n", m.Scale, m.Triples, m.FileDigest, m.Seed)
	fmt.Fprintf(w, "meta: window %.0fs warm-up %.0fs set-ups/run %d closed-loop clients %d\n", m.WindowS, m.WarmupS, m.Setups, m.Clients)
}

// runReport is one run of one workload: the unit the driver asks for.
type runReport struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	// SelfCheck is non-empty when the replay's layers did not add up to
	// the request. It says the breakdown is unreliable, not that the
	// program answered wrongly, so it does not touch Correct: the driver
	// reads Correct as "the outputs were right".
	SelfCheck string `json:"self_check,omitempty"`
}

// defs are the metrics a run of this kind reports.
func (r *runReport) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// resultLine renders the one JSON object the driver reads from the last
// line of standard output: every metric of the run's kind, by name.
func (r *runReport) resultLine() string {
	defs := r.defs()
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func (r *runReport) print(w io.Writer) {
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for i, f := range r.Failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(r.Failures)-10)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.SelfCheck != "" {
		fmt.Fprintf(w, "  FAILED %s\n", r.SelfCheck)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// summary is an end-to-end metric over the runs of one suite.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (q3 − q1) / median; 0 with fewer than two runs
}

// workloadReport is one workload of a suite report.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// suiteReport is what the full command writes and -compare reads.
type suiteReport struct {
	Meta      meta             `json:"meta"`
	EndToEnd  []metricDef      `json:"end_to_end_metrics"`
	PerLayer  []metricDef      `json:"per_layer_metrics"`
	Workloads []workloadReport `json:"workloads"`
}

func summarize(runs []map[string]float64) map[string]summary {
	out := map[string]summary{}
	for _, d := range endToEnd {
		var s summary
		for _, r := range runs {
			s.Values = append(s.Values, r[d.Name])
		}
		s.Median, s.Spread = median(s.Values), spread(s.Values)
		out[d.Name] = s
	}
	return out
}

// shares prints what the issue's acceptance asks to see: each layer's
// share of the replayed request, largest first.
func printShares(w io.Writer, library bool, m map[string]float64) {
	total := m["client.request_us"]
	parts := map[string]float64{
		"engine.execute":                  m["engine.execute_us"],
		"engine.flatten":                  m["engine.flatten_us"],
		"stats.collect + opt.enumerate":   m["stats.collect_us"] + m["opt.enumerate_us"] + m["querygraph.build_us"],
		"sparql + querygraph + plancache": m["sparql.parse_us"] + m["plancache.hit_us"],
		"system.unattributed":             m["system.unattributed_us"],
		"httpd encode":                    m["httpd.serve_us"] - m["system.run_us"],
		"net.transfer":                    m["net.transfer_us"],
	}
	if library {
		total = m["system.run_us"]
		delete(parts, "httpd encode")
		delete(parts, "net.transfer")
	}
	if total <= 0 {
		return
	}
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return parts[names[i]] > parts[names[j]] })
	fmt.Fprintf(w, "  shares of the replayed request (%.0f us):\n", total)
	for _, n := range names {
		fmt.Fprintf(w, "    %-34s %6.1f%%  (%.0f us)\n", n, 100*parts[n]/total, parts[n])
	}
}
