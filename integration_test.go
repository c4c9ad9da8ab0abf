package sparqlopt

import (
	"context"
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

// TestProbedJoinsKeepCounts pins what joins that probe the index
// changed and what where work runs may not change. The table holds
// L1–L10 and the spine's two point reads under hash-so and 2f (LUBM-1,
// seed 1, 4 nodes): the rows joined, moved and flattened are properties
// of the plan; the postings touched are what the probing joins read,
// next to what reading every leaf in full touched before them. Every
// count is exact — which nodes get a goroutine decides where the work
// runs, never how much there is. P2's matches live on the advisor
// triple's two homes, so its join runs on at most two nodes.
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
		scannedBefore                       int64 // postings touched when every leaf was read in full
	}{
		{"hash-so", "L1", 9, 0, 0, 9, 18, 310},
		{"hash-so", "L2", 536, 0, 0, 536, 564, 994},
		{"hash-so", "L3", 12, 16, 112, 6, 16, 3696},
		{"hash-so", "L4", 312, 64, 256, 148, 866, 1254},
		{"hash-so", "L5", 455, 20, 128, 2, 548, 6704},
		{"hash-so", "L6", 26, 20, 240, 2, 102, 10368},
		{"hash-so", "L7", 690, 68, 528, 329, 2514, 2669},
		{"hash-so", "L8", 2069, 1536, 10240, 145, 5318, 7177},
		{"hash-so", "L9", 1459, 1024, 6144, 0, 4221, 14815},
		{"hash-so", "L10", 3328, 3292, 52160, 0, 5646, 16500},
		{"hash-so", "P1", 0, 0, 0, 3, 3, 10},
		{"hash-so", "P2", 2, 0, 0, 2, 4, 789},
		{"2f", "L1", 5, 0, 0, 5, 10, 259},
		{"2f", "L2", 1443, 0, 0, 1443, 1507, 1612},
		{"2f", "L3", 12, 16, 112, 5, 18, 2728},
		{"2f", "L4", 465, 0, 0, 465, 2036, 2141},
		{"2f", "L5", 1469, 20, 128, 8, 1693, 6111},
		{"2f", "L6", 77, 20, 240, 1, 244, 8207},
		{"2f", "L7", 343, 0, 0, 343, 1713, 1818},
		{"2f", "L8", 137, 0, 0, 137, 7577, 7577},
		{"2f", "L9", 199, 0, 0, 0, 6986, 12592},
		{"2f", "L10", 199, 0, 0, 0, 8110, 13720},
		{"2f", "P1", 0, 0, 0, 4, 4, 12},
		{"2f", "P2", 2, 0, 0, 2, 4, 1455},
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
			t.Errorf("%s/%s: metrics %+v flat %d, want %+v flat %d (%d postings before joins probed)",
				c.method, c.query, got, res.FlatRowCount(), want, c.flat, c.scannedBefore)
		}
		if c.method == "hash-so" && c.query == "P2" && (res.Trace.Alg == plan.Scan || res.Trace.BusyNodes > 2) {
			t.Errorf("hash-so/P2: root %v ran on %d/%d nodes, want a join on at most 2", res.Trace.Alg, res.Trace.BusyNodes, res.Trace.Nodes)
		}
	}
}
