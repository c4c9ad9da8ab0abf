package baseline

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
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
)

// goldenPlansFile pins, for L1–L10 under 2f and hash-so, the plans of
// the optimizers internal/opt's golden file does not cover — Greedy
// and the four baselines — in the same line format: the plan's cost
// as IEEE-754 bits, an FNV-1a digest of its Format() tree and the
// search-space counters, on exact LUBM-1 statistics.
const goldenPlansFile = "golden_plans.txt"

type namedRun struct {
	name string
	run  func(context.Context, *opt.Input) (*opt.Result, error)
}

func optimizeWith(a opt.Algorithm) func(context.Context, *opt.Input) (*opt.Result, error) {
	return func(ctx context.Context, in *opt.Input) (*opt.Result, error) { return opt.Optimize(ctx, in, a) }
}

// goldenRuns are every optimizer: the first pinnedRuns have their plans
// pinned here; the rest are pinned in internal/opt's golden file and
// only checked for anchors here.
var goldenRuns = []namedRun{
	{"Greedy", optimizeWith(opt.Greedy)},
	{"MSC", MSC},
	{"DP-Bushy", DPBushy},
	{"BinaryDP", BinaryDP},
	{"DPccp", DPccp},
	{"TD-Auto", optimizeWith(opt.TDAuto)},
	{"TD-CMD", optimizeWith(opt.TDCMD)},
	{"TD-CMDP", optimizeWith(opt.TDCMDP)},
	{"HGR-TD-CMD", optimizeWith(opt.HGRTDCMD)},
}

const pinnedRuns = 5

// goldenPlans renders the pinned table and, per line, the plan tree it
// digests. On the way it checks every optimizer's local joins for their
// anchors: each LocalJoin node must name LocalChecker.Anchor of its
// set, the variable the engine's root emits a match's home by. Neither
// the plan text nor its digest shows the anchor.
func goldenPlans(t *testing.T) (table string, trees []string) {
	t.Helper()
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	var b strings.Builder
	locals := 0
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
			checker := partition.NewLocalChecker(m, querygraph.NewGraph(q))
			for ri, r := range goldenRuns {
				est, err := stats.NewEstimator(q, st)
				if err != nil {
					t.Fatal(err)
				}
				in := &opt.Input{Query: q, Est: est, Params: cost.Default, Method: m}
				res, err := r.run(context.Background(), in)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, method, r.name, err)
				}
				var check func(n *plan.Node)
				check = func(n *plan.Node) {
					if n.Alg == plan.LocalJoin {
						locals++
						if want := checker.Anchor(n.Set); n.Anchor != want {
							t.Errorf("%s/%s/%s: local join of %v anchored at %q, want %q",
								name, method, r.name, n.Set, n.Anchor, want)
						}
					}
					for _, ch := range n.Children {
						check(ch)
					}
				}
				check(res.Plan)
				if ri >= pinnedRuns {
					continue
				}
				tree := res.Plan.Format()
				h := fnv.New64a()
				h.Write([]byte(tree))
				fmt.Fprintf(&b, "%s %s %s cost=%#016x tree=%016x cmds=%d plans=%d subqueries=%d\n",
					name, method, r.name, math.Float64bits(res.Plan.Cost), h.Sum64(),
					res.Counter.CMDs, res.Counter.Plans, res.Counter.Subqueries)
				trees = append(trees, tree)
			}
		}
	}
	if locals == 0 {
		t.Error("no local join planned: the anchor check checked nothing")
	}
	return b.String(), trees
}

// TestGoldenPlans holds Greedy and the baselines to the plans they
// chose before, and every optimizer's local joins to their anchors.
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
