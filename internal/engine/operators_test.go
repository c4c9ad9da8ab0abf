package engine

import (
	"context"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// buildPlan hand-assembles a plan over a query with real stats.
func handPlan(t *testing.T, ds *rdf.Dataset, q *sparql.Query, build func(scan func(i int) *plan.Node) *plan.Node) *plan.Node {
	t.Helper()
	st, err := stats.Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(i int) *plan.Node {
		return plan.NewScan(i, st.Patterns[i].Card, cost.Default)
	}
	p := build(scan)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBroadcastEqualsRepartition: the two distributed join algorithms
// must produce identical answers for the same logical join.
func TestBroadcastEqualsRepartition(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <worksFor> ?o . }`)
	placement, err := partition.HashSO.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []plan.Algorithm{plan.BroadcastJoin, plan.RepartitionJoin} {
		p := handPlan(t, ds, q, func(scan func(int) *plan.Node) *plan.Node {
			return plan.NewJoin(alg, "b", []*plan.Node{scan(0), scan(1)}, 5, cost.Default)
		})
		got, err := e.Execute(context.Background(), p, q)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		equalResults(t, got, want, alg.String())
	}
}

// TestMultiwayRepartition: a 3-way repartition join on the shared
// variable answers like the reference.
func TestMultiwayRepartition(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <worksFor> ?o . ?b <worksFor> ?o . ?o <inCity> ?c . }`)
	placement, err := partition.HashSO.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	p := handPlan(t, ds, q, func(scan func(int) *plan.Node) *plan.Node {
		return plan.NewJoin(plan.RepartitionJoin, "o",
			[]*plan.Node{scan(0), scan(1), scan(2)}, 10, cost.Default)
	})
	got, err := e.Execute(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, want, "3-way repartition")
}

// TestSingleNodeCluster: everything degenerates gracefully at n = 1.
func TestSingleNodeCluster(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <knows> ?c . }`)
	placement, err := partition.PathBMC.Partition(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	if e.Nodes() != 1 {
		t.Fatalf("Nodes = %d", e.Nodes())
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	p := handPlan(t, ds, q, func(scan func(int) *plan.Node) *plan.Node {
		return plan.NewJoin(plan.RepartitionJoin, "b", []*plan.Node{scan(0), scan(1)}, 5, cost.Default)
	})
	got, err := e.Execute(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, want, "single node")
	if got.Metrics.TransferredRows != 0 {
		t.Errorf("single-node cluster transferred %d rows", got.Metrics.TransferredRows)
	}
}

// TestMoreNodesThanData: empty fragments must not break anything.
func TestMoreNodesThanData(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("a", "p", "b")
	ds.Add("b", "q", "c")
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . }`)
	placement, err := partition.HashSO.Partition(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	p := handPlan(t, ds, q, func(scan func(int) *plan.Node) *plan.Node {
		return plan.NewJoin(plan.BroadcastJoin, "y", []*plan.Node{scan(0), scan(1)}, 1, cost.Default)
	})
	got, err := e.Execute(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Errorf("got %d rows, want 1", len(got.Rows))
	}
}

// TestRepartitionMissingVariable: executing a plan whose repartition
// variable is absent from an input is an error, not a panic.
func TestRepartitionMissingVariable(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <worksFor> ?o . }`)
	placement, _ := partition.HashSO.Partition(ds, 2)
	e := New(ds.Dict, placement)
	p := handPlan(t, ds, q, func(scan func(int) *plan.Node) *plan.Node {
		return plan.NewJoin(plan.RepartitionJoin, "nonexistent", []*plan.Node{scan(0), scan(1)}, 5, cost.Default)
	})
	if _, err := e.Execute(context.Background(), p, q); err == nil {
		t.Error("missing repartition variable accepted")
	}
}

// TestInvalidPlanRejected: Execute validates its plan first.
func TestInvalidPlanRejected(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <worksFor> ?o . }`)
	placement, _ := partition.HashSO.Partition(ds, 2)
	e := New(ds.Dict, placement)
	bad := &plan.Node{Set: 3, Alg: plan.LocalJoin} // no children
	if _, err := e.Execute(context.Background(), bad, q); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestLiteralObjects: literal terms flow through scans and joins.
func TestLiteralObjects(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("a", "name", `"Alice"`)
	ds.Add("a", "age", `"30"`)
	ds.Add("b", "name", `"Bob"`)
	q := sparql.MustParse(`SELECT ?n WHERE { ?x <name> ?n . ?x <age> "30" . }`)
	got, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || ds.Dict.Term(got.Rows[0][0]) != `"Alice"` {
		t.Errorf("literal join wrong: %v", got.Rows)
	}
}
