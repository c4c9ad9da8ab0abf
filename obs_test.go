// Tests for the observability layer as seen through the public API:
// the RunOption compatibility contract, trace-tree determinism, the
// end-to-end metrics/trace/slow-log pipeline on the LUBM workload, and
// phase-annotated cancellation.
package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparqlopt/internal/workload/lubm"
)

// TestPositionalAlgorithmStillWorks pins the compatibility contract of
// the RunOption redesign: a bare Algorithm is itself a RunOption, so
// the pre-redesign positional call style compiles unchanged and
// behaves identically to WithAlgorithm.
func TestPositionalAlgorithmStillWorks(t *testing.T) {
	sys, err := Open(tinyDataset(), WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	src := `SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . ?o <http://inCity> ?c . }`
	ctx := context.Background()
	for _, algo := range []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto} {
		oldStyle, err := sys.Run(ctx, src, algo)
		if err != nil {
			t.Fatalf("%v positional: %v", algo, err)
		}
		newStyle, err := sys.Run(ctx, src, WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%v option: %v", algo, err)
		}
		if len(oldStyle.Rows) != len(newStyle.Rows) {
			t.Errorf("%v: positional returned %d rows, WithAlgorithm %d",
				algo, len(oldStyle.Rows), len(newStyle.Rows))
		}
		if oldStyle.Opt.Used != newStyle.Opt.Used {
			t.Errorf("%v: positional used %v, WithAlgorithm %v",
				algo, oldStyle.Opt.Used, newStyle.Opt.Used)
		}
		if oldStyle.Opt.Plan.Cost != newStyle.Opt.Plan.Cost {
			t.Errorf("%v: plan costs differ: %g vs %g",
				algo, oldStyle.Opt.Plan.Cost, newStyle.Opt.Plan.Cost)
		}
	}
	// The positional style works for Optimize too.
	res, err := sys.Optimize(ctx, src, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	if res.Used != TDCMD {
		t.Errorf("positional Optimize used %v, want TDCMD", res.Used)
	}
}

// TestRunDefaultsToTDAuto pins the redesign's default: no options at
// all selects TD-Auto.
func TestRunDefaultsToTDAuto(t *testing.T) {
	sys, err := Open(tinyDataset(), WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Run(context.Background(),
		`SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Opt == nil {
		t.Fatal("Run result carries no optimization result")
	}
}

// spanSkeleton renders a span tree as names plus attributes, durations
// excluded — the schedule-independent part of a trace.
func spanSkeleton(s *Span, indent string, b *strings.Builder) {
	b.WriteString(indent)
	b.WriteString(s.Name)
	for _, a := range s.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		spanSkeleton(c, indent+"  ", b)
	}
}

// TestTraceTreeInvariant checks that the trace skeleton — span names,
// nesting and every attribute, including the estimated and actual
// cardinalities and the shuffle volumes — is bit-identical across two
// executions on fresh systems, at one and at four GOMAXPROCS. Only
// durations may change with the schedule of the per-node workers.
func TestTraceTreeInvariant(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	src := lubm.QueryText("L7")
	var want string
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		sys, err := Open(ds, WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		var tr *Trace
		if _, err := sys.Run(context.Background(), src, WithTraceSink(func(t *Trace) { tr = t })); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if tr == nil {
			t.Fatalf("GOMAXPROCS=%d: trace sink not called", procs)
		}
		sys.Close()
		var b strings.Builder
		spanSkeleton(tr.Root, "", &b)
		got := b.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("trace skeleton diverged\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=%d:\n%s", want, procs, got)
		}
	}
}

// checkExposition asserts that text is parseable Prometheus text
// exposition format: every line is a comment or `name[{labels}] value`.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Errorf("bad metric name in %q", line)
				break
			}
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Errorf("bad sample value in %q: %v", line, err)
		}
		seen++
	}
	if seen == 0 {
		t.Error("exposition contains no samples")
	}
}

// metricValue extracts one un-labeled sample from an exposition dump.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestObservabilityEndToEnd serves LUBM L1–L10 with the full layer on
// — metrics, tracing, slow-query log and the plan cache — and checks
// every artifact: the exposition parses and counts the runs, each
// trace covers the serving phases down to per-operator cardinalities,
// and the slow-query log retains per-phase timings and the root's
// flat-row count for every query.
func TestObservabilityEndToEnd(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	sys, err := Open(ds, WithNodes(4), WithPlanCache(64),
		WithObservability(WithSlowQueryLog(64, 0)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// flat[i] is run i's root flat-row count, for the slow-log check.
	var flat []int64
	for _, name := range lubm.QueryNames {
		var tr *Trace
		out, err := sys.Run(ctx, lubm.QueryText(name), WithTraceSink(func(t *Trace) { tr = t }))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat = append(flat, out.FlatRowCount())
		if tr == nil {
			t.Fatalf("%s: no trace delivered", name)
		}
		// Serving phases: first run of a shape is a cache miss, so the
		// full pipeline must appear.
		for _, phase := range []string{"parse", "canonicalize", "cache_lookup", "stats", "enumerate", "execute"} {
			if tr.Find(phase) == nil {
				t.Errorf("%s: trace lacks phase %q:\n%s", name, phase, tr.Format())
			}
		}
		if outcome, _ := tr.Find("cache_lookup").Attr("outcome"); outcome != "miss" {
			t.Errorf("%s: first run cache_lookup outcome = %q, want miss", name, outcome)
		}
		// The tracker answers every pattern of L1–L10: nothing scans.
		if scanned, _ := tr.Find("stats").Attr("scanned"); scanned != "0" {
			t.Errorf("%s: stats span scanned = %q, want 0", name, scanned)
		}
		// Per-operator spans carry estimated and actual cardinalities.
		exec := tr.Find("execute")
		ops := 0
		var walk func(s *Span)
		walk = func(s *Span) {
			if strings.HasPrefix(s.Name, "op:") {
				ops++
				if _, ok := s.Attr("est_rows"); !ok {
					t.Errorf("%s: span %s lacks est_rows", name, s.Name)
				}
				if _, ok := s.Attr("rows"); !ok {
					t.Errorf("%s: span %s lacks rows", name, s.Name)
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(exec)
		if ops == 0 {
			t.Errorf("%s: no operator spans under execute:\n%s", name, tr.Format())
		}
		if out.CacheInfo.Hit {
			t.Errorf("%s: first run reported a cache hit", name)
		}
	}

	// Warm repeat: served from the cache, trace says so.
	var warm *Trace
	out, err := sys.Run(ctx, lubm.QueryText("L2"), WithTraceSink(func(t *Trace) { warm = t }))
	if err != nil {
		t.Fatal(err)
	}
	flat = append(flat, out.FlatRowCount())
	if outcome, _ := warm.Find("cache_lookup").Attr("outcome"); outcome != "hit" {
		t.Errorf("warm run cache_lookup outcome = %q, want hit", outcome)
	}
	if warm.Find("enumerate") != nil {
		t.Errorf("warm run still enumerated:\n%s", warm.Format())
	}

	var b strings.Builder
	if err := sys.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkExposition(t, text)
	runs := float64(len(lubm.QueryNames) + 1)
	if got := metricValue(t, text, "query_runs_total"); got != runs {
		t.Errorf("query_runs_total = %g, want %g", got, runs)
	}
	if got := metricValue(t, text, "query_errors_total"); got != 0 {
		t.Errorf("query_errors_total = %g, want 0", got)
	}
	if got := metricValue(t, text, "plancache_hits"); got != 1 {
		t.Errorf("plancache_hits = %g, want 1", got)
	}

	entries := sys.SlowQueries()
	if len(entries) != int(runs) {
		t.Fatalf("slow-query log has %d entries, want %g", len(entries), runs)
	}
	for i, e := range entries {
		if len(e.Phases) == 0 {
			t.Errorf("slow-query entry %q has no phase timings", e.Query)
		}
		if e.Err == "" && e.Duration <= 0 {
			t.Errorf("slow-query entry %q has non-positive duration", e.Query)
		}
		// Entries come newest first; the log line carries the flat count.
		want := flat[len(flat)-1-i]
		if e.FlatRows != want {
			t.Errorf("slow-query entry %q: flat rows %d, result counted %d", e.Query, e.FlatRows, want)
		}
		if s := e.String(); !strings.Contains(s, fmt.Sprintf(" flat_rows=%d", want)) {
			t.Errorf("slow-query line lacks flat_rows=%d: %s", want, s)
		}
	}

	// A variable predicate is a shape the tracker cannot answer: the
	// stats span shows the scan it paid.
	var scan *Trace
	varPred := `SELECT * WHERE { ?x ?p <http://www.University0.edu> . ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#name> ?n . }`
	if _, err := sys.Run(ctx, varPred, WithTraceSink(func(t *Trace) { scan = t })); err != nil {
		t.Fatal(err)
	}
	if scanned, _ := scan.Find("stats").Attr("scanned"); scanned != "1" {
		t.Errorf("variable-predicate query: stats span scanned = %q, want 1:\n%s", scanned, scan.Format())
	}
}

// TestFactorizedServingPath serves L2 through the full serving stack on
// the one flat path, which now carries every root join, including those
// the removed answer-graph root would have deferred. With the slow log
// on, the rows must equal the reference, the flat-row count must match
// a plain system's and bound the distinct rows, and the slow-log entry
// must record that count and print it.
func TestFactorizedServingPath(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	plain, err := Open(ds, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	logged, err := Open(ds, WithNodes(4), WithObservability(WithSlowQueryLog(64, 0)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := lubm.QueryText("L2")

	want, err := plain.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := logged.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(ds, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "L2 with slow log", got, ref)
	if got.FlatRowCount() < int64(len(got.Rows)) {
		t.Errorf("flat count %d below distinct rows %d", got.FlatRowCount(), len(got.Rows))
	}
	if got.FlatRowCount() != want.FlatRowCount() {
		t.Errorf("flat count %d with slow log, %d without", got.FlatRowCount(), want.FlatRowCount())
	}

	entries := logged.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("slow-query log empty")
	}
	e := entries[0]
	if e.FlatRows != got.FlatRowCount() {
		t.Errorf("slow-log flat rows %d, result counted %d", e.FlatRows, got.FlatRowCount())
	}
	if s := e.String(); !strings.Contains(s, fmt.Sprintf(" flat_rows=%d", got.FlatRowCount())) {
		t.Errorf("slow-log line lacks flat_rows=%d: %s", got.FlatRowCount(), s)
	}
}

// TestWriteMetricsRequiresObservability pins the error contract of the
// disabled path.
func TestWriteMetricsRequiresObservability(t *testing.T) {
	sys, err := Open(tinyDataset())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteMetrics(io.Discard); err == nil {
		t.Error("WriteMetrics succeeded without WithObservability")
	}
	if sys.MetricsRegistry() != nil {
		t.Error("MetricsRegistry non-nil without WithObservability")
	}
	if sys.SlowQueries() != nil {
		t.Error("SlowQueries non-nil without WithObservability")
	}
}

// TestCancellationReportsPhase checks that a per-call deadline and a
// client cancel both surface as a *PhaseError naming the interrupted
// phase, while errors.Is still distinguishes the two causes.
func TestCancellationReportsPhase(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	sys, err := Open(ds, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	src := lubm.QueryText("L10")

	_, err = sys.Run(context.Background(), src, WithDeadline(time.Nanosecond))
	if err == nil {
		t.Fatal("1ns deadline not enforced")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("deadline error %v is not a *PhaseError", err)
	}
	if pe.Phase == "" {
		t.Error("deadline PhaseError has empty phase")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error %v does not wrap context.DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("deadline error %v claims context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.Run(ctx, src)
	if err == nil {
		t.Fatal("canceled context not enforced")
	}
	pe = nil
	if !errors.As(err, &pe) {
		t.Fatalf("cancel error %v is not a *PhaseError", err)
	}
	if pe.Phase == "" {
		t.Error("cancel PhaseError has empty phase")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancel error %v does not wrap context.Canceled", err)
	}
}

// BenchmarkRun measures the serving path with observability off (the
// default nil-check-only hooks) and fully on (metrics + keep-everything
// slow-query log). The obsoverhead experiment measures the same
// comparison on the full LUBM mix; this is its in-tree microbenchmark.
func BenchmarkRun(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1, Compact: true})
	src := lubm.QueryText("L2")
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"obs-off", nil},
		{"obs-on", []Option{WithObservability(WithSlowQueryLog(64, 0))}},
	} {
		sys, err := Open(ds, append([]Option{WithNodes(4)}, mode.opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
