package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparqlopt/internal/workload/lubm"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if b := samplesBeyond(200, 95); b != 10 {
		t.Errorf("samplesBeyond(200, 95) = %d, want 10", b)
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if p := percentile(s, 95); p != 190 {
		t.Errorf("nearest-rank p95 of 1..200 = %g, want 190", p)
	}
	if p := percentile(s, 50); p != 100 {
		t.Errorf("nearest-rank p50 of 1..200 = %g, want 100", p)
	}
}

func TestMidMean(t *testing.T) {
	// 1..8 with a burst: the outer quarters (1, 2 and 8, 100) go.
	if got := midMean([]float64{100, 4, 1, 6, 2, 5, 8, 3}); got != 4.5 {
		t.Errorf("midMean = %g, want 4.5", got)
	}
	if got := midMean([]float64{7}); got != 7 {
		t.Errorf("midMean of one value = %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestScheduleIsSeededAndWeighted(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: datasetSeed})
	oracle := func(src string) ([]string, answer, error) { return referenceAnswer(ds, src) }
	for _, w := range workloads {
		reqs, err := buildRequests(w, ds, 7, oracle)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		again, _ := buildRequests(w, ds, 7, oracle)
		if !reflect.DeepEqual(reqs, again) {
			t.Errorf("%s: the same seed drew different requests", w.name)
		}
		a, b, c := buildSchedule(w, reqs, 7), buildSchedule(w, reqs, 7), buildSchedule(w, reqs, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		total, perKind := 0, map[string]int{}
		for _, m := range w.mix {
			total += m.weight
		}
		for _, i := range a {
			perKind[reqs[i].Kind]++
		}
		for _, m := range w.mix {
			// The seeded credit offsets may move one slot across the end.
			if got, want := perKind[m.kind], len(a)*m.weight/total; got < want-1 || got > want+1 {
				t.Errorf("%s: kind %s has %d of %d slots, want %d", w.name, m.kind, got, len(a), want)
			}
		}
		for _, r := range reqs {
			if r.Want.Rows == 0 {
				t.Errorf("%s: %s is empty", w.name, r.ID)
			}
		}
	}
}

// Every mix keeps p50 and p95 inside one kind's mass, ownerMargin
// points from its neighbours, for the latency order the mix lists.
func TestPercentileOwnership(t *testing.T) {
	for _, w := range workloads {
		for i, o := range ownersOf(w.mix, 50, 95) {
			if o.Margin < ownerMargin {
				t.Errorf("%s: p%d falls in %s only %.1f points from the next kind", w.name, []int{50, 95}[i], o.Kind, o.Margin)
			}
		}
	}
	got := ownersOf([]mixEntry{{"a", 4}, {"b", 2}, {"c", 4}}, 50, 95)
	if got[0].Kind != "b" || got[0].Margin != 10 || got[1].Kind != "c" || got[1].Margin != 35 {
		t.Errorf("ownersOf = %+v", got)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	r := newRecorder()
	root := r.add("root", 1, 0, -1, 0, 100)
	r.add("a", 1, 0, root, 10, 30)
	b := r.add("b", 1, 0, root, 20, 50) // overlaps a: counted once
	r.add("c", 1, 0, root, 90, 120)     // outlasts the parent: clipped
	r.add("b1", 1, 0, b, 20, 25)
	r.add("op", 1, 0, root, 50, 90) // skipped below
	self := selfTimes(r.spans, func(s span) bool { return s.Name == "op" })
	want := map[int]int64{0: 50, 1: 20, 2: 25, 3: 30, 4: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// Placed children follow one another from the parent's start.
	p := r.add("parent", 2, 0, -1, 1000, 1100)
	x := r.place("x", p, 30)
	y := r.place("y", p, 50)
	if s := r.spans[x]; s.StartNS != 1000 || s.EndNS != 1030 {
		t.Errorf("first placed child at %d-%d", s.StartNS, s.EndNS)
	}
	if s := r.spans[y]; s.StartNS != 1030 || s.EndNS != 1080 || s.RequestID != 2 {
		t.Errorf("second placed child %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "latency_p50_ms", Better: lower, Bound: 0.10}
	qps := metricDef{Name: "throughput_qps", Better: higher, Bound: 0.10}
	s := func(median, spread float64) summary { return summary{Median: median, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lat, s(10, 0.02), s(10.9, 0.02), verdictOK},
		{lat, s(10, 0.02), s(11.1, 0.02), verdictWorse},
		{lat, s(10, 0.02), s(5, 0.02), verdictOK}, // better is never worse
		{lat, s(10, 0.12), s(10, 0.02), verdictUnresolved},
		{lat, s(10, 0.02), s(20, 0.30), verdictUnresolved},
		{qps, s(100, 0.02), s(89, 0.02), verdictWorse},
		{qps, s(100, 0.02), s(120, 0.02), verdictOK},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// A workload or a metric that one report lacks is unresolved, not
// skipped and not an improvement.
func TestCompareReportsMissing(t *testing.T) {
	full := map[string]summary{}
	for _, d := range endToEnd {
		full[d.Name] = summary{Values: []float64{1, 1}, Median: 1}
	}
	partial := map[string]summary{}
	for k, v := range full {
		partial[k] = v
	}
	delete(partial, "latency_p95_ms")
	write := func(name string, ws ...workloadReport) string {
		path := filepath.Join(t.TempDir(), name)
		data, _ := json.Marshal(suiteReport{Meta: meta{Schema: schemaVersion}, Workloads: ws})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", workloadReport{Name: "x", EndToEnd: full}, workloadReport{Name: "y", EndToEnd: full})
	b := write("b.json", workloadReport{Name: "x", EndToEnd: partial}, workloadReport{Name: "z", EndToEnd: full})
	var buf bytes.Buffer
	worse, err := compareReports(&buf, a, b)
	if err != nil || worse {
		t.Fatalf("worse %v, err %v", worse, err)
	}
	// x lacks one metric in b; y is missing in b and z in a, whole.
	want := fmt.Sprintf("%d ok, 0 worse, %d unresolved", len(endToEnd)-1, 1+2*len(endToEnd))
	if !strings.Contains(buf.String(), want) {
		t.Errorf("want %q in:\n%s", want, buf.String())
	}
}

// The body parsers digest what the server's encoders write to the same
// answer the oracle computes from dictionary terms.
func TestBodyParsersAgreeWithDigester(t *testing.T) {
	var d digester
	d.addRow([]string{"http://a", `"lit"`})
	d.addRow([]string{"http://b", "_:x"})
	want := d.answer()
	js := `{"head":{"vars":["y","x"]},"results":{"bindings":[` +
		`{"y":{"type":"bnode","value":"x"},"x":{"type":"uri","value":"http://b"}},` +
		`{"y":{"type":"literal","value":"lit"},"x":{"type":"uri","value":"http://a"}}]}}`
	if got, err := parseJSON(strings.NewReader(js), []string{"x", "y"}); err != nil || got != want {
		t.Errorf("parseJSON = %+v, %v; want %+v", got, err, want)
	}
	tsv := "?x\t?y\n<http://a>\t\"lit\"\n<http://b>\t_:x\n"
	if got, err := parseTSV(strings.NewReader(tsv), []string{"x", "y"}); err != nil || got != want {
		t.Errorf("parseTSV = %+v, %v; want %+v", got, err, want)
	}
	if _, err := parseTSV(strings.NewReader("?x\t?z\n"), []string{"x", "y"}); err == nil {
		t.Error("parseTSV accepted the wrong variables")
	}
}

// benchmarkJSON is BENCHMARK.json as the tables in this package say it
// should be.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

func TestBenchmarkJSONInSync(t *testing.T) {
	want := benchmarkJSON()
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match the metric and workload tables; run go test -run TestBenchmarkJSONInSync -update", path)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s) is outside the driver's limits", d.Name, d.Unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics: over the driver's limits", len(perLayer), len(endToEnd))
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
}

// The smoke test builds the real binaries and runs the whole suite at
// LUBM-2 with 2 s windows, oracle on, so the harness cannot bit-rot;
// then it checks that a corrupted golden answer fails a run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sparqld and runs all four workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bench := func(args ...string) ([]byte, error) {
		cmd := exec.Command(bin, append([]string{"-root", "..", "-quick"}, args...)...)
		return cmd.CombinedOutput()
	}
	report := filepath.Join(dir, "report.json")
	if out, err := bench("-seed", "5", "-runs", "2", "-out", report); err != nil {
		t.Fatalf("suite: %v\n%s", err, out)
	}
	rep, err := loadReport(report)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, w.Correct, w.Failed, w.Attempted)
		}
		for _, d := range endToEnd {
			if w.EndToEnd[d.Name].Median <= 0 {
				t.Errorf("%s: %s is %g", w.Name, d.Name, w.EndToEnd[d.Name].Median)
			}
		}
		if r, u := w.PerLayer["replay.layer_sum_ratio"], w.PerLayer["replay.unattributed_share"]; r < 1 || r > ratioHi || u > unattributedHi {
			t.Errorf("%s: replay.layer_sum_ratio %g, replay.unattributed_share %g", w.Name, r, u)
		}
	}
	var buf bytes.Buffer
	if worse, err := compareReports(&buf, report, report); err != nil || worse {
		t.Errorf("a report compared with itself: worse %v, err %v\n%s", worse, err, buf.String())
	}

	golden := filepath.Join(dir, "golden.json")
	if out, err := bench("-write-golden", "-golden", golden); err != nil {
		t.Fatalf("-write-golden: %v\n%s", err, out)
	}
	out, err := bench("-seed", "1", "-golden", golden, "-workload", "warm-mix")
	if err != nil || !bytes.Contains(out, []byte("oracle: golden")) {
		t.Fatalf("run against fresh golden answers: %v\n%s", err, out)
	}
	g, err := loadGolden(golden)
	if err != nil {
		t.Fatal(err)
	}
	g.Workloads["warm-mix"][0].Want.Rows++
	data, _ := json.Marshal(g)
	if err := os.WriteFile(golden, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := bench("-seed", "1", "-golden", golden, "-workload", "warm-mix"); err == nil {
		t.Errorf("a corrupted golden answer did not fail the run:\n%s", out)
	}
}
