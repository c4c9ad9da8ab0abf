package main

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/workload/lubm"
)

// The plans -demo (LUBM-2, L8, hash-so, 10 nodes) prints.
const (
	tdPlan = `⋈B on ?y (card=4.991, cost=35.2)
  ⋈R on ?z (card=32, cost=15.93)
    ⋈L on ?y (card=32, cost=5.568)
      scan tp1 (card=128, cost=2.56)
      scan tp2 (card=16, cost=0.32)
    scan tp3 (card=53, cost=1.06)
  ⋈L on ?x (card=129.8, cost=12.64)
    scan tp4 (card=224, cost=4.48)
    scan tp5 (card=73, cost=1.46)
    scan tp6 (card=85, cost=1.7)
`
	hgrPlan = `⋈B on ?z (card=4.991, cost=35.2)
  ⋈L on ?x (card=129.8, cost=12.64)
    scan tp4 (card=224, cost=4.48)
    scan tp5 (card=73, cost=1.46)
    scan tp6 (card=85, cost=1.7)
  ⋈R on ?z (card=32, cost=15.93)
    ⋈L on ?y (card=32, cost=5.568)
      scan tp1 (card=128, cost=2.56)
      scan tp2 (card=16, cost=0.32)
    scan tp3 (card=53, cost=1.06)
`
	greedyPlan = `⋈R on ?z (card=4.991, cost=117.3)
  ⋈R on ?z (card=146, cost=72.84)
    ⋈R on ?y (card=146, cost=48.23)
      ⋈R on ?x (card=73, cost=23.38)
        ⋈L on ?y (card=85, cost=4.06)
          scan tp2 (card=16, cost=0.32)
          scan tp6 (card=85, cost=1.7)
        scan tp5 (card=73, cost=1.46)
      scan tp1 (card=128, cost=2.56)
    scan tp3 (card=53, cost=1.06)
  scan tp4 (card=224, cost=4.48)
`
	mscPlan = `⋈R on ?z (card=4.991, cost=38.44)
  ⋈L on ?y (card=32, cost=5.568)
    scan tp1 (card=128, cost=2.56)
    scan tp2 (card=16, cost=0.32)
  scan tp3 (card=53, cost=1.06)
  ⋈L on ?x (card=129.8, cost=12.64)
    scan tp4 (card=224, cost=4.48)
    scan tp5 (card=73, cost=1.46)
    scan tp6 (card=85, cost=1.7)
`
)

var resultLine = regexp.MustCompile(`(?m)^optimized with (.+) in \S+: (cost=.*)$`)

func demo(t *testing.T, algorithm string, execute bool) string {
	t.Helper()
	var out strings.Builder
	err := run(runConfig{
		algorithm: algorithm, partName: "hash-so", nodes: 10, timeout: time.Minute,
		demo: true, execute: execute, explain: execute,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestDemoPlans pins what -demo prints for every -algorithm name: the
// result line's label and counters, and the plan.
func TestDemoPlans(t *testing.T) {
	for _, tc := range []struct {
		algorithm, label, counters, plan string
	}{
		{"td-cmd", "td-cmd", "cost=35.2 cmds=252 plans=516 subqueries=47", tdPlan},
		{"td-auto", "td-auto (ran TD-CMD)", "cost=35.2 cmds=252 plans=516 subqueries=47", tdPlan},
		{"td-cmdp", "td-cmdp", "cost=35.2 cmds=231 plans=429 subqueries=47", tdPlan},
		{"hgr-td-cmd", "hgr-td-cmd", "cost=35.2 cmds=10 plans=20 subqueries=7", hgrPlan},
		{"greedy", "greedy", "cost=117.3 cmds=5 plans=11 subqueries=11", greedyPlan},
		{"msc", "msc", "cost=38.44 cmds=48 plans=18 subqueries=0", mscPlan},
		{"dp-bushy", "dp-bushy", "cost=35.2 cmds=169 plans=350 subqueries=63", tdPlan},
		{"binary-dp", "binary-dp", "cost=35.2 cmds=168 plans=348 subqueries=47", tdPlan},
	} {
		t.Run(tc.algorithm, func(t *testing.T) {
			out := demo(t, tc.algorithm, false)
			m := resultLine.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no result line in:\n%s", out)
			}
			if m[1] != tc.label || m[2] != tc.counters {
				t.Errorf("result line names %q with %q, want %q with %q", m[1], m[2], tc.label, tc.counters)
			}
			if !strings.HasSuffix(out, "\nplan:\n"+tc.plan) {
				t.Errorf("plan:\n%s\nwant:\n%s", out[strings.Index(out, "plan:"):], tc.plan)
			}
		})
	}
}

// TestDemoExecute pins -execute under hash-so: the metrics line, and
// the first printed row is the reference evaluator's first sorted row.
func TestDemoExecute(t *testing.T) {
	out := demo(t, "td-auto", true)
	if want := "22 rows scanned=279 shuffled=448 rows/3220 B joined=150\n"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "\nexecution trace:\n⋈B on ?y: rows=22 ") {
		t.Errorf("output lacks the execution trace:\n%s", out)
	}
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true})
	ref, err := engine.Reference(ds, lubm.Query("L8"))
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for _, id := range ref.Rows[0] {
		first = append(first, ds.Dict.Term(id))
	}
	// Rows are the only tab-separated lines.
	before, _, found := strings.Cut(out, "\n"+strings.Join(first, "\t")+"\n")
	if !found || strings.Contains(before, "\t") {
		t.Errorf("first printed row is not the reference's first row %q:\n%s", first, out)
	}
	if !strings.HasSuffix(out, "... (12 more)\n") {
		t.Errorf("output does not end with the 12 rows it leaves out:\n%s", out)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	var out strings.Builder
	err := run(runConfig{algorithm: "td-cmd-x", partName: "hash-so", nodes: 10, demo: true}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "td-cmd-x"`) {
		t.Fatalf("run = %v, want an unknown-algorithm error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before rejecting the name", out.String())
	}
}

// TestDisconnectedQuery: every -algorithm name rejects a query whose
// join graph is disconnected with the same typed error.
func TestDisconnectedQuery(t *testing.T) {
	dir := t.TempDir()
	data, query := filepath.Join(dir, "g.nt"), filepath.Join(dir, "q.rq")
	if err := os.WriteFile(data, []byte("<a> <p> <b> .\n<c> <q> <d> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(query, []byte("SELECT * WHERE { ?a <p> ?b . ?c <q> ?d . }"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algorithm := range []string{"td-auto", "greedy", "msc", "dp-bushy", "binary-dp"} {
		err := run(runConfig{dataPath: data, queryPath: query, algorithm: algorithm,
			partName: "hash-so", nodes: 10, timeout: time.Minute}, &strings.Builder{})
		if !errors.Is(err, querygraph.ErrUnsupported) {
			t.Errorf("-algorithm %s: err = %v, want querygraph.ErrUnsupported", algorithm, err)
		}
	}
}
