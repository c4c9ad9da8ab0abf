package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// socialDataset builds a small deterministic graph: people know each
// other, work for orgs, orgs are in cities.
func socialDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	people := []string{"alice", "bob", "carol", "dave", "erin"}
	orgs := []string{"acme", "globex"}
	for i, p := range people {
		ds.Add(p, "type", "Person")
		ds.Add(p, "worksFor", orgs[i%2])
		ds.Add(p, "knows", people[(i+1)%len(people)])
	}
	for i, o := range orgs {
		ds.Add(o, "type", "Org")
		ds.Add(o, "inCity", fmt.Sprintf("city%d", i))
	}
	return ds
}

func TestReferenceSimpleJoin(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT ?p ?o WHERE { ?p <worksFor> ?o . ?o <inCity> <city0> . }`)
	res, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	// acme is in city0; alice, carol, erin work for acme.
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if ds.Dict.Term(row[1]) != "acme" {
			t.Errorf("unexpected org %s", ds.Dict.Term(row[1]))
		}
	}
}

func TestReferenceConstantMiss(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT ?p WHERE { ?p <worksFor> <unknownOrg> . }`)
	res, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("unknown constant matched %d rows", len(res.Rows))
	}
}

func TestReferenceRepeatedVariable(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("a", "p", "a") // self loop
	ds.Add("a", "p", "b")
	q := sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?x . }`)
	res, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("repeated variable matched %d rows, want 1", len(res.Rows))
	}
	if ds.Dict.Term(res.Rows[0][0]) != "a" {
		t.Errorf("bound %s", ds.Dict.Term(res.Rows[0][0]))
	}
}

func TestReferenceProjectionError(t *testing.T) {
	ds := socialDataset()
	q := &sparql.Query{
		Select:   []string{"nope"},
		Patterns: sparql.MustParse(`SELECT * WHERE { ?p <type> <Person> . }`).Patterns,
	}
	if _, err := Reference(ds, q); err == nil {
		t.Error("unbound projection accepted")
	}
}

// equalResults compares two results row for row.
func equalResults(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if len(got.Vars) != len(want.Vars) {
		t.Fatalf("%s: vars %v vs %v", label, got.Vars, want.Vars)
	}
	for i := range got.Vars {
		if got.Vars[i] != want.Vars[i] {
			t.Fatalf("%s: vars %v vs %v", label, got.Vars, want.Vars)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// optimizeFor builds a plan for q over ds with real collected stats.
func optimizeFor(t testing.TB, ds *rdf.Dataset, q *sparql.Query, m partition.Method, algo opt.Algorithm) *opt.Result {
	t.Helper()
	views, err := querygraph.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := stats.NewEstimator(q, st)
	if err != nil {
		t.Fatal(err)
	}
	in := &opt.Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m}
	res, err := opt.Optimize(context.Background(), in, algo)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var testQueries = []string{
	`SELECT * WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`,
	`SELECT * WHERE { ?p <type> <Person> . ?p <worksFor> ?o . ?o <inCity> ?c . }`,
	`SELECT * WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?d . }`,
	`SELECT * WHERE { ?a <knows> ?b . ?a <worksFor> ?o . ?b <worksFor> ?o . }`,
	`SELECT ?p WHERE { ?p <type> <Person> . ?p <worksFor> <acme> . }`,
	`SELECT * WHERE { ?a <worksFor> ?o . ?b <worksFor> ?o . ?a <knows> ?b . ?o <inCity> ?c . }`,
}

func TestDistributedMatchesReference(t *testing.T) {
	ds := socialDataset()
	methods := []partition.Method{
		partition.HashSO, partition.TwoHopForward, partition.TwoHopBidirectional,
		partition.PathBMC, partition.UndirectedOneHop,
	}
	algos := []opt.Algorithm{opt.TDCMD, opt.TDCMDP, opt.HGRTDCMD, opt.TDAuto}
	for _, src := range testQueries {
		q := sparql.MustParse(src)
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			placement, err := m.Partition(ds, 4)
			if err != nil {
				t.Fatal(err)
			}
			e := New(ds.Dict, placement)
			for _, algo := range algos {
				label := fmt.Sprintf("%s/%s/%s", src[:20], m.Name(), algo)
				res := optimizeFor(t, ds, q, m, algo)
				got, err := e.Execute(context.Background(), res.Plan, q)
				if err != nil {
					t.Fatalf("%s: %v\n%s", label, err, res.Plan.Format())
				}
				equalResults(t, got, want, label)
			}
		}
	}
}

func TestLocalPlansMoveNoRows(t *testing.T) {
	// A star query under hash partitioning is local: executing the
	// local plan must transfer zero rows.
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?p <type> <Person> . ?p <worksFor> ?o . ?p <knows> ?b . }`)
	m := partition.HashSO
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, opt.TDCMDP)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.TransferredRows != 0 {
		t.Errorf("local plan transferred %d rows\n%s", got.Metrics.TransferredRows, res.Plan.Format())
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, want, "local star")
}

func TestDistributedJoinMovesRows(t *testing.T) {
	// A chain query is not local under hash partitioning; distributed
	// joins must report transferred rows.
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?d . }`)
	m := partition.HashSO
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, opt.TDCMD)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.TransferredRows == 0 {
		t.Errorf("distributed plan reported zero transfer\n%s", res.Plan.Format())
	}
}

func TestExecuteCancelled(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(testQueries[0])
	m := partition.HashSO
	placement, _ := m.Partition(ds, 2)
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, opt.TDCMD)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, res.Plan, q); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestScannedTriplesCounted(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`)
	m := partition.HashSO
	placement, _ := m.Partition(ds, 3)
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, opt.TDCMD)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.ScannedTriples == 0 {
		t.Error("no scanned triples recorded")
	}
}

// TestQuickRandomGraphsAllPartitionings is the heavyweight integration
// property: on random graphs and random (connected, constant-bearing)
// queries, every optimizer × partitioning combination must reproduce
// the reference answer.
func TestQuickRandomGraphsAllPartitionings(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	methods := []partition.Method{
		partition.HashSO, partition.TwoHopForward, partition.PathBMC, partition.UndirectedOneHop,
	}
	for trial := 0; trial < 12; trial++ {
		ds := randomGraph(r, 30+r.Intn(40), 4)
		q := randomDataQuery(r, ds, 2+r.Intn(3))
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		m := methods[trial%len(methods)]
		placement, err := m.Partition(ds, 1+r.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		e := New(ds.Dict, placement)
		algo := []opt.Algorithm{opt.TDCMD, opt.TDCMDP, opt.HGRTDCMD, opt.TDAuto}[trial%4]
		res := optimizeFor(t, ds, q, m, algo)
		got, err := e.Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatalf("trial %d (%s, %v): %v\nquery: %s\n%s", trial, m.Name(), algo, err, q, res.Plan.Format())
		}
		equalResults(t, got, want, fmt.Sprintf("trial %d (%s, %v, %s)", trial, m.Name(), algo, q))
	}
}

// randomGraph builds a random directed graph with p predicate labels.
func randomGraph(r *rand.Rand, nodes, preds int) *rdf.Dataset {
	ds := rdf.NewDataset()
	for i := 0; i < nodes*2; i++ {
		s := fmt.Sprintf("n%d", r.Intn(nodes))
		o := fmt.Sprintf("n%d", r.Intn(nodes))
		p := fmt.Sprintf("p%d", r.Intn(preds))
		ds.Add(s, p, o)
	}
	return ds
}

// randomDataQuery grows a connected query whose predicates come from
// the dataset, guaranteeing a chance of matches.
func randomDataQuery(r *rand.Rand, ds *rdf.Dataset, n int) *sparql.Query {
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		var s, o string
		if i == 0 {
			s, o = "v0", "v1"
		} else {
			prev := q.Patterns[r.Intn(i)]
			anchor := prev.S.Value
			if r.Intn(2) == 0 {
				anchor = prev.O.Value
			}
			other := fmt.Sprintf("v%d", r.Intn(n+2))
			if r.Intn(2) == 0 {
				s, o = anchor, other
			} else {
				s, o = other, anchor
			}
		}
		pred := ds.Dict.Term(ds.Triples[r.Intn(ds.Len())].P)
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(s), P: sparql.I(pred), O: sparql.V(o),
		})
	}
	return q
}
