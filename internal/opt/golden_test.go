package opt

import (
	"context"
	"fmt"
	"hash/fnv"
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
// bits), an FNV-1a digest of its Format() tree, the search-space
// counters and the concrete algorithm TD-Auto picked, on exact LUBM-1
// statistics. Any change to the enumerator, the estimator or the cost
// model that moves a single bit shows here, and so does a change of
// which of two equal-cost plans wins.
const goldenPlansFile = "golden_plans.txt"

// goldenPlans renders the pinned table and, per line, the plan tree it
// digests.
func goldenPlans(t *testing.T) (table string, trees []string) {
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
				in := &Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m}
				res, err := Optimize(context.Background(), in, algo)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, method, algo, err)
				}
				tree := res.Plan.Format()
				h := fnv.New64a()
				h.Write([]byte(tree))
				fmt.Fprintf(&b, "%s %s %s used=%s cost=%#016x tree=%016x cmds=%d plans=%d subqueries=%d\n",
					name, method, algo, res.Used, math.Float64bits(res.Plan.Cost), h.Sum64(),
					res.Counter.CMDs, res.Counter.Plans, res.Counter.Subqueries)
				trees = append(trees, tree)
			}
		}
	}
	return b.String(), trees
}

// TestGoldenPlans holds the enumerator to the plans it chose before:
// a run must reproduce the pinned table line for line.
func TestGoldenPlans(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", goldenPlansFile))
	if err != nil {
		t.Fatal(err)
	}
	got, trees := goldenPlans(t)
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			if i < len(trees) {
				t.Logf("line %d's plan:\n%s", i+1, trees[i])
			}
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
}
