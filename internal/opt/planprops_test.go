package opt

import (
	"context"
	"math/rand"
	"testing"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
)

// assertNoCartesian walks a plan and asserts every distributed join is
// a genuine connected multi-division: each child holds a pattern
// adjacent to the join variable, and the joined set is connected.
func assertNoCartesian(t *testing.T, jg *querygraph.JoinGraph, n *plan.Node) {
	t.Helper()
	if n.Alg == plan.Scan {
		return
	}
	if n.Alg == plan.BroadcastJoin || n.Alg == plan.RepartitionJoin {
		vj, ok := jg.VarIndex[n.JoinVar]
		if !ok {
			t.Fatalf("join on unknown variable ?%s", n.JoinVar)
		}
		for _, ch := range n.Children {
			if !ch.Set.Overlaps(jg.Ntp[vj]) {
				t.Fatalf("child %v of join on ?%s has no adjacent pattern (Cartesian product)", ch.Set, n.JoinVar)
			}
		}
	}
	if !jg.Connected(n.Set) {
		t.Fatalf("operator output %v is a disconnected subquery", n.Set)
	}
	for _, ch := range n.Children {
		assertNoCartesian(t, jg, ch)
	}
}

// TestPlansAreCartesianFree checks the problem statement's core
// constraint ("a k-way bushy plan without Cartesian-product") on every
// algorithm over random queries.
func TestPlansAreCartesianFree(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	algos := []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto}
	for trial := 0; trial < 40; trial++ {
		q := randomConnectedQuery(r, 2+r.Intn(7))
		in := makeInput(t, q, int64(500+trial), partition.HashSO)
		for _, algo := range algos {
			res, err := Optimize(context.Background(), in, algo)
			if err != nil {
				t.Fatal(err)
			}
			assertNoCartesian(t, in.Views.Join, res.Plan)
		}
	}
}

// TestPlanCardinalityConsistency: every operator's annotated
// cardinality equals the estimator's value for its pattern set.
func TestPlanCardinalityConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	for trial := 0; trial < 20; trial++ {
		q := randomConnectedQuery(r, 3+r.Intn(5))
		in := makeInput(t, q, int64(600+trial), partition.PathBMC)
		res, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			want := in.Est.Cardinality(n.Set)
			if n.Card != want {
				t.Fatalf("node %v card %v, estimator says %v", n.Set, n.Card, want)
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(res.Plan)
	}
}

// TestMemoDeterminism: optimizing the same input twice yields the
// same cost and the same search-space counters.
func TestMemoDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(405))
	for trial := 0; trial < 10; trial++ {
		q := randomConnectedQuery(r, 4+r.Intn(4))
		in := makeInput(t, q, int64(700+trial), partition.HashSO)
		a, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		if a.Plan.Cost != b.Plan.Cost || a.Counter != b.Counter {
			t.Errorf("non-deterministic: %v/%v vs %v/%v",
				a.Plan.Cost, a.Counter, b.Plan.Cost, b.Counter)
		}
	}
}

// TestOptionsCombinations exercises every rule subset for validity.
func TestOptionsCombinations(t *testing.T) {
	r := rand.New(rand.NewSource(407))
	q := randomConnectedQuery(r, 7)
	in := makeInput(t, q, 800, partition.HashSO)
	full, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		o := Options{
			PruneCCMD:           mask&1 != 0,
			BinaryBroadcastOnly: mask&2 != 0,
			LocalShortcut:       mask&4 != 0,
		}
		res, err := OptimizeWithOptions(context.Background(), in, o)
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if res.Plan.Cost < full.Plan.Cost-1e-9 {
			t.Errorf("mask %d beat the optimum: %v < %v", mask, res.Plan.Cost, full.Plan.Cost)
		}
		if res.Counter.CMDs > full.Counter.CMDs {
			t.Errorf("mask %d enumerated more than TD-CMD", mask)
		}
	}
}
