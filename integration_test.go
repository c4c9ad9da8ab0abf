package sparqlopt

import (
	"context"
	"fmt"
	"testing"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/uniprot"
)

// TestBenchmarkQueriesDistributedVsReference runs every benchmark
// query (L1–L10, U1–U5) through the full pipeline — stats collection,
// optimization, partitioning, distributed execution — and compares
// with the single-node reference answer.
func TestBenchmarkQueriesDistributedVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline sweep")
	}
	lds := lubm.Generate(lubm.Config{Universities: 7, Seed: 1, Compact: true})
	uds := uniprot.Generate(uniprot.Config{Proteins: 300, Seed: 2})

	type workload struct {
		ds    *Dataset
		names []string
		get   func(string) *Query
	}
	workloads := []workload{
		{lds, lubm.QueryNames, lubm.Query},
		{uds, uniprot.QueryNames, uniprot.Query},
	}
	for _, methodName := range []string{"hash-so", "path-bmc"} {
		m, err := PartitionMethod(methodName)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads {
			sys, err := Open(wl.ds, WithMethod(m), WithNodes(5))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range wl.names {
				q := wl.get(name)
				want, err := Reference(wl.ds, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, algo := range []Algorithm{TDAuto, TDCMDP} {
					res, err := sys.OptimizeQuery(context.Background(), q, WithAlgorithm(algo))
					if err != nil {
						t.Fatalf("%s/%s/%v: optimize: %v", methodName, name, algo, err)
					}
					got, err := sys.Execute(context.Background(), res.Plan, q)
					if err != nil {
						t.Fatalf("%s/%s/%v: execute: %v", methodName, name, algo, err)
					}
					if len(got.Rows) != len(want.Rows) {
						t.Errorf("%s/%s/%v: %d rows, reference has %d",
							methodName, name, algo, len(got.Rows), len(want.Rows))
						continue
					}
					for i := range got.Rows {
						for j := range got.Rows[i] {
							if got.Rows[i][j] != want.Rows[i][j] {
								t.Errorf("%s/%s/%v: row %d differs", methodName, name, algo, i)
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestPathPartitioningMakesBenchmarksLocal verifies the paper's
// headline §V-B observation: under Path-BMC every benchmark query is a
// local query, so TD-Auto's plans move zero rows.
func TestPathPartitioningMakesBenchmarksLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline sweep")
	}
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true})
	m, err := PartitionMethod("path-bmc")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(ds, WithMethod(m), WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lubm.QueryNames {
		q := lubm.Query(name)
		res, err := sys.OptimizeQuery(context.Background(), q, WithAlgorithm(TDAuto))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := sys.Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// L3, L5, L6, L9, L10 mention constants anchored mid-path, so a
		// few queries keep one distributed join; the pure-variable
		// chains and stars must be fully local.
		switch name {
		case "L1", "L2", "L4", "L7":
			if out.Metrics.TransferredRows != 0 {
				t.Errorf("%s moved %d rows under path partitioning\n%s",
					name, out.Metrics.TransferredRows, res.Plan.Format())
			}
		}
	}
}

// TestProbedJoinsKeepCounts pins what joins that probe the index, local
// stars that merge sorted ranges, local joins that leapfrog on every
// shared variable and a root that emits each answer once, from its home
// node, changed and what where work runs may not change. The table holds
// L1–L10 and the spine's two point reads under hash-so and 2f (LUBM-1,
// seed 1, 4 nodes): the rows joined, moved and flattened are properties
// of the plan; the postings touched are what the merging joins read,
// next to what the joins touched while multi-variable local joins folded,
// before stars merged and before joins probed. The root's home rule
// moved the cells whose root is a scan or a local join (L1, L2, P1, P2
// under hash-so; L2, L4, L7, P1 under 2f): flatCopies is what their root
// flattened while every node emitted every match it held. Every count is
// exact — which nodes get a goroutine decides where the work runs, never
// how much there is. P2's matches live on the advisor triple's two
// homes, so its join runs on at most two nodes.
func TestProbedJoinsKeepCounts(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	const prefixes = "PREFIX ub: <" + lubm.UB + ">\n"
	const student = "<http://www.Department0.University0.edu/GraduateStudent0>"
	queries := map[string]*Query{}
	for _, name := range lubm.QueryNames {
		queries[name] = lubm.Query(name)
	}
	for name, src := range map[string]string{
		"P1": "SELECT ?c WHERE { " + student + " ub:takesCourse ?c . }",
		"P2": "SELECT ?f ?d WHERE { " + student + " ub:advisor ?f . ?f ub:worksFor ?d . }",
	} {
		q, err := ParseQuery(prefixes + src)
		if err != nil {
			t.Fatal(err)
		}
		queries[name] = q
	}
	for _, c := range []struct {
		method, query                       string
		joined, moved, bytes, flat, scanned int64
		scannedFolded                       int64 // postings touched while multi-variable local joins folded
		scannedProbed                       int64 // postings touched before local stars merged
		scannedRead                         int64 // postings touched when every leaf was read in full
		flatCopies                          int64 // flat rows while every node emitted every match it held
	}{
		{"hash-so", "L1", 5, 0, 0, 5, 10, 18, 18, 310, 9},
		{"hash-so", "L2", 443, 0, 0, 443, 459, 564, 564, 994, 536},
		{"hash-so", "L3", 12, 16, 112, 6, 13, 13, 16, 3696, 6},
		{"hash-so", "L4", 312, 64, 256, 148, 328, 328, 866, 1254, 148},
		{"hash-so", "L5", 455, 20, 128, 2, 487, 487, 548, 6704, 2},
		{"hash-so", "L6", 26, 20, 240, 2, 42, 42, 102, 10368, 2},
		{"hash-so", "L7", 690, 68, 528, 329, 1021, 1021, 2514, 2669, 329},
		{"hash-so", "L8", 2069, 1536, 10240, 145, 2839, 2839, 5318, 7177, 145},
		{"hash-so", "L9", 1459, 1024, 6144, 0, 2467, 2467, 4221, 14815, 0},
		{"hash-so", "L10", 3328, 3292, 52160, 0, 3289, 3289, 5646, 16500, 0},
		{"hash-so", "P1", 0, 0, 0, 2, 2, 3, 3, 10, 3},
		{"hash-so", "P2", 1, 0, 0, 1, 2, 4, 4, 789, 2},
		{"2f", "L1", 5, 0, 0, 5, 10, 10, 10, 259, 5},
		{"2f", "L2", 443, 0, 0, 443, 1507, 1507, 1507, 1612, 1443},
		{"2f", "L3", 12, 16, 112, 5, 14, 14, 18, 2728, 5},
		{"2f", "L4", 128, 0, 0, 128, 372, 2036, 2036, 2141, 465},
		{"2f", "L5", 1469, 20, 128, 8, 1587, 1587, 1693, 6111, 8},
		{"2f", "L6", 77, 20, 240, 1, 138, 138, 244, 8207, 1},
		{"2f", "L7", 269, 0, 0, 269, 939, 1713, 1713, 1818, 343},
		{"2f", "L8", 137, 0, 0, 137, 780, 7577, 7577, 7577, 137},
		{"2f", "L9", 199, 0, 0, 0, 1309, 6986, 6986, 12592, 0},
		{"2f", "L10", 199, 0, 0, 0, 1632, 8110, 8110, 13720, 0},
		{"2f", "P1", 0, 0, 0, 2, 2, 4, 4, 12, 4},
		{"2f", "P2", 2, 0, 0, 2, 4, 4, 4, 1455, 2},
	} {
		m, err := PartitionMethod(c.method)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Open(ds, WithMethod(m), WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunQuery(context.Background(), queries[c.query])
		sys.Close()
		if err != nil {
			t.Fatalf("%s/%s: %v", c.method, c.query, err)
		}
		got := res.Metrics
		want := engine.Metrics{ScannedTriples: c.scanned, TransferredRows: c.moved, TransferredBytes: c.bytes, JoinedRows: c.joined}
		if got != want || res.FlatRowCount() != c.flat {
			t.Errorf("%s/%s: metrics %+v flat %d, want %+v flat %d (%d postings while local joins folded, %d before stars merged, %d before joins probed; %d flat while every node emitted every match)",
				c.method, c.query, got, res.FlatRowCount(), want, c.flat, c.scannedFolded, c.scannedProbed, c.scannedRead, c.flatCopies)
		}
		if c.method == "hash-so" && c.query == "P2" && (res.Trace.Alg == plan.Scan || res.Trace.BusyNodes > 2) {
			t.Errorf("hash-so/P2: root %v ran on %d/%d nodes, want a join on at most 2", res.Trace.Alg, res.Trace.BusyNodes, res.Trace.Nodes)
		}
	}
}

// TestEdgeShapesMatchReference runs the query shapes the benchmarks
// never exercise — unbound predicates, a bound subject or object with
// everything else free, chains through a variable predicate — over an
// empty dataset and a small one with a self-loop, under every
// partitioning method, through both Run and RunStream. Every answer
// must equal the single-node reference.
func TestEdgeShapesMatchReference(t *testing.T) {
	small := NewDataset()
	for _, tr := range [][3]string{
		{"http://a", "http://q", "http://b"},
		{"http://b", "http://q", "http://c"},
		{"http://c", "http://r", "http://a"},
		{"http://a", "http://q", "http://a"}, // self-loop
		{"http://b", "http://r", "http://d"},
		{"http://d", "http://q", "http://a"},
	} {
		small.Add(tr[0], tr[1], tr[2])
	}
	datasets := []struct {
		name string
		ds   *Dataset
	}{{"empty", NewDataset()}, {"self-loop", small}}
	queries := []string{
		`SELECT * WHERE { ?s ?p ?o . }`,
		`SELECT * WHERE { <http://a> ?p ?o . }`,
		`SELECT * WHERE { ?s ?p <http://a> . }`,
		`SELECT * WHERE { ?x ?p ?y . ?y <http://q> ?z . }`,
		`SELECT * WHERE { ?x ?p ?y . ?y ?r ?z . }`,
	}
	ctx := context.Background()
	for _, d := range datasets {
		for _, methodName := range []string{"hash-so", "2f", "2fb", "path-bmc", "un-1hop"} {
			m, err := PartitionMethod(methodName)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Open(d.ds, WithMethod(m), WithNodes(3))
			if err != nil {
				t.Fatalf("%s/%s: %v", d.name, methodName, err)
			}
			for _, src := range queries {
				label := fmt.Sprintf("%s/%s %s", d.name, methodName, src)
				want, err := Reference(d.ds, mustParse(t, src))
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				if d.ds == small && len(want.Rows) == 0 {
					t.Fatalf("%s: reference is empty; the dataset no longer exercises the shape", label)
				}
				got, err := sys.Run(ctx, src)
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				sameRows(t, label+" Run", got, want)
				rows, err := sys.RunStream(ctx, src)
				if err != nil {
					t.Fatalf("%s: RunStream: %v", label, err)
				}
				if streamed := drainSorted(t, rows); !equalRowSets(streamed, want.Rows) {
					t.Errorf("%s: RunStream returned %d rows, reference %d", label, len(streamed), len(want.Rows))
				}
			}
			sys.Close()
		}
	}
}
