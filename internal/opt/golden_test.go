package opt

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
)

// goldenPlansFile pins, for L1–L10 under 2f and hash-so and each of
// the paper's four algorithms, the chosen plan's cost (as IEEE-754
// bits), the search-space counters and the concrete algorithm TD-Auto
// picked, on exact LUBM-1 statistics. Any change to the enumerator,
// the estimator or the cost model that moves a single bit shows here.
const goldenPlansFile = "golden_plans.txt"

// goldenPlans renders the pinned table for the given parallelism.
func goldenPlans(t *testing.T, parallelism int) string {
	t.Helper()
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	var b strings.Builder
	for _, method := range []string{"2f", "hash-so"} {
		m, err := partition.ByName(method)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			name := fmt.Sprintf("L%d", i)
			q := lubm.Query(name)
			st, err := stats.Collect(ds, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []Algorithm{TDAuto, TDCMD, TDCMDP, HGRTDCMD} {
				views, err := querygraph.Build(q)
				if err != nil {
					t.Fatal(err)
				}
				est, err := stats.NewEstimator(q, st)
				if err != nil {
					t.Fatal(err)
				}
				in := &Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m, Parallelism: parallelism}
				res, err := Optimize(context.Background(), in, algo)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, method, algo, err)
				}
				fmt.Fprintf(&b, "%s %s %s used=%s cost=%#016x cmds=%d plans=%d subqueries=%d\n",
					name, method, algo, res.Used, math.Float64bits(res.Plan.Cost),
					res.Counter.CMDs, res.Counter.Plans, res.Counter.Subqueries)
			}
		}
	}
	return b.String()
}

// TestGoldenPlans holds the enumerator to the plans it chose before:
// the sequential and the parallel runs must both reproduce the pinned
// table line for line.
func TestGoldenPlans(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenPlansFile))
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	for _, p := range []int{1, 4} {
		got := goldenPlans(t, p)
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("P=%d line %d:\n got  %s\n want %s", p, i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("P=%d: %d lines, want %d", p, len(gl), len(wl))
		}
	}
}
