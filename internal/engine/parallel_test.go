package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/race"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/randquery"
)

// datasetFor builds a random dataset whose predicates are exactly the
// query's, so randquery-generated shapes are executable with a real
// chance of matches. Deterministic for a given rand source.
func datasetFor(r *rand.Rand, q *sparql.Query, entities int) *rdf.Dataset {
	ds := rdf.NewDataset()
	seen := map[string]bool{}
	for _, tp := range q.Patterns {
		p := tp.P.Value
		if seen[p] {
			continue
		}
		seen[p] = true
		for i := 0; i < 3*entities; i++ {
			s := fmt.Sprintf("n%d", r.Intn(entities))
			o := fmt.Sprintf("n%d", r.Intn(entities))
			ds.Add(s, p, o)
		}
	}
	return ds
}

// TestDeterminismParallelExecution is the execution-side analogue of
// the optimizer's determinism suite: random queries of every class,
// executed across all partitioning methods, must return exactly the
// single-node reference's rows, and a second execution on a fresh
// engine must report the same metrics and trace shape. The per-node
// workers are what varies between the runs (and with GOMAXPROCS); run
// under -race this also shakes out data races in them.
func TestDeterminismParallelExecution(t *testing.T) {
	trials := 10
	entities := 12
	if race.Enabled {
		trials = 5
		entities = 8
	}
	classes := []querygraph.Class{
		querygraph.Star, querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense,
	}
	methods := []partition.Method{
		partition.HashSO{}, partition.TwoHopForward{}, partition.PathBMC{}, partition.UndirectedOneHop{},
	}
	algos := []opt.Algorithm{opt.TDCMD, opt.TDCMDP, opt.HGRTDCMD, opt.TDAuto}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		class := classes[trial%len(classes)]
		n := 3 + r.Intn(3)
		q, _ := randquery.Generate(class, n, int64(1000+trial))
		ds := datasetFor(r, q, entities)
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		m := methods[trial%len(methods)]
		algo := algos[trial%len(algos)]
		placement, err := m.Partition(ds, 2+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		res := optimizeFor(t, ds, q, m, algo)
		label := fmt.Sprintf("trial %d (%s, %s, %v)", trial, class, m.Name(), algo)
		first, err := New(ds.Dict, placement).Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalResults(t, first, want, label+" vs reference")
		got, err := New(ds.Dict, placement).Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatalf("%s rerun: %v", label, err)
		}
		equalResults(t, got, first, label+" rerun")
		if got.Metrics != first.Metrics {
			t.Errorf("%s: metrics diverge: %+v vs %+v", label, got.Metrics, first.Metrics)
		}
		if traceOps(got.Trace) != traceOps(first.Trace) {
			t.Errorf("%s: trace shape diverges: %d vs %d operators", label, traceOps(got.Trace), traceOps(first.Trace))
		}
	}
}

// TestDeterminismParallelBenchQuery pins the engine's per-node workers
// against the hand-checked social-graph queries.
func TestDeterminismParallelBenchQuery(t *testing.T) {
	ds := socialDataset()
	for _, src := range testQueries {
		q := sparql.MustParse(src)
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		m := partition.HashSO{}
		placement, err := m.Partition(ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		res := optimizeFor(t, ds, q, m, opt.TDAuto)
		got, err := New(ds.Dict, placement).Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatal(err)
		}
		equalResults(t, got, want, src[:15])
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestFanOut pins the per-node helper every operator's steps run
// through: f runs exactly once per node whatever the busy pattern; nodes without
// work and the first busy node run on the calling goroutine, every
// other busy node on a goroutine of its own; the lowest-numbered
// node's error wins; and a panic comes back as a typed PanicError
// wherever it ran.
func TestFanOut(t *testing.T) {
	const n = 6
	patterns := map[string][]bool{
		"none":        make([]bool, n),
		"one":         {false, false, false, true, false, false},
		"all":         {true, true, true, true, true, true},
		"alternating": {true, false, true, false, true, false},
	}
	for name, pattern := range patterns {
		first := slices.Index(pattern, true)
		e := &Engine{}
		caller := goid()
		var runs [n]atomic.Int32
		var mu sync.Mutex
		ran := map[int]string{}
		err := e.fanOut(pattern, func(node int) error {
			runs[node].Add(1)
			mu.Lock()
			ran[node] = goid()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for node := 0; node < n; node++ {
			if got := runs[node].Load(); got != 1 {
				t.Errorf("%s: node %d ran %d times", name, node, got)
			}
			onCaller := ran[node] == caller
			if inline := !pattern[node] || node == first; onCaller != inline {
				t.Errorf("%s: node %d ran on the caller = %v, want %v", name, node, onCaller, inline)
			}
		}

		// Nodes 1 and 4 fail; node 1's error is returned whichever of
		// them is busy.
		err = e.fanOut(pattern, func(node int) error {
			if node == 1 || node == 4 {
				return fmt.Errorf("node %d", node)
			}
			return nil
		})
		if err == nil || err.Error() != "node 1" {
			t.Errorf("%s: err = %v, want node 1's", name, err)
		}
	}

	// Node 0 idle, node 2 the caller's busy node, node 4 a spawned one.
	pattern := []bool{false, false, true, false, true, false}
	for _, node := range []int{0, 2, 4} {
		e := &Engine{}
		err := e.fanOut(pattern, func(at int) error {
			if at == node {
				panic(fmt.Sprintf("poisoned node %d", at))
			}
			return nil
		})
		var pe *resilience.PanicError
		if !errors.As(err, &pe) || pe.Value != fmt.Sprintf("poisoned node %d", node) {
			t.Errorf("panic on node %d: err = %v, want *resilience.PanicError", node, err)
		}
	}
}

// TestJoinCancelled: a degenerate cross-product join — Reference's hash
// join, whichever side it builds on, and the engine's trie join with
// nothing to intersect on — must notice a cancelled context long before
// materializing its output, and report the join phase.
func TestJoinCancelled(t *testing.T) {
	rel := func(v string, n int) *Relation {
		r := newRelation([]string{v}, n)
		for i := 0; i < n; i++ {
			r.appendCopy([]rdf.TermID{rdf.TermID(i)})
		}
		return r
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sizes := range [][2]int{{6000, 5000}, {5000, 6000}} {
		a, b := rel("x", sizes[0]), rel("y", sizes[1])
		_, err := hashJoin(ctx, a, b)
		vars := [][]string{a.Vars, b.Vars}
		sizes := []int64{int64(sizes[0]), int64(sizes[1])}
		_, trieErr := newSortedJoin(vars, sizes, make([]*scanLeaf, 2), joinOrder(vars, sizes)).join(ctx, nil, "local join", 0, []*Relation{a, b})
		for _, err := range []error{err, trieErr} {
			var pe *obs.PhaseError
			if !errors.As(err, &pe) || pe.Phase != "join" || !errors.Is(err, context.Canceled) {
				t.Errorf("|a|=%d |b|=%d: err = %v, want a join PhaseError wrapping context.Canceled", sizes[0], sizes[1], err)
			}
		}
	}
}

// TestScatterCancelled: the repartition scatter polls ctx too.
func TestScatterCancelled(t *testing.T) {
	e := New(rdf.NewDataset().Dict, &partition.Placement{Nodes: 2, Triples: make([][]rdf.Triple, 2)})
	frag := newRelation([]string{"x"}, 10000)
	for i := 0; i < 10000; i++ {
		frag.appendCopy([]rdf.TermID{rdf.TermID(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.scatter(ctx, []*Relation{frag, frag}, 0, ExecEnv{Snap: e.snap.Load()}); err == nil {
		t.Fatal("cancelled scatter ran to completion")
	}
}
