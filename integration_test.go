package sparqlopt

import (
	"context"
	"testing"

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

// TestProbedJoinsKeepCounts pins what joins that probe the index may
// and may not change. The table holds L1–L10 and the spine's two point
// reads under hash-so and 2f (LUBM-1, seed 1, 4 nodes) as measured at
// the last commit whose joins read every leaf in full: the rows joined,
// moved and flattened are properties of the plan and must not move at
// all; the postings touched may only fall — and where a selective side
// exists they must fall by the order of magnitude that is the point.
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
		method, query                  string
		joined, moved, bytes, flat     int64
		scannedBefore, scannedAtMostAs int64 // the latter 0 = no tighter bound than before
	}{
		{"hash-so", "L1", 9, 0, 0, 9, 310, 30},
		{"hash-so", "L2", 536, 0, 0, 536, 994, 0},
		{"hash-so", "L3", 12, 16, 112, 6, 3696, 50},
		{"hash-so", "L4", 312, 64, 256, 148, 1254, 0},
		{"hash-so", "L5", 455, 20, 128, 2, 6704, 0},
		{"hash-so", "L6", 26, 20, 240, 2, 10368, 150},
		{"hash-so", "L7", 690, 68, 528, 329, 2669, 0},
		{"hash-so", "L8", 2069, 1536, 10240, 145, 7177, 0},
		{"hash-so", "L9", 1459, 1024, 6144, 0, 14815, 0},
		{"hash-so", "L10", 3328, 3292, 52160, 0, 16500, 0},
		{"hash-so", "P1", 0, 0, 0, 3, 10, 0},
		{"hash-so", "P2", 2, 0, 0, 2, 789, 10},
		{"2f", "L1", 5, 0, 0, 5, 259, 0},
		{"2f", "L2", 1443, 0, 0, 1443, 1612, 0},
		{"2f", "L3", 12, 16, 112, 5, 2728, 0},
		{"2f", "L4", 465, 0, 0, 465, 2141, 0},
		{"2f", "L5", 1469, 20, 128, 8, 6111, 0},
		{"2f", "L6", 77, 20, 240, 1, 8207, 0},
		{"2f", "L7", 343, 0, 0, 343, 1818, 0},
		{"2f", "L8", 137, 0, 0, 137, 7577, 0},
		{"2f", "L9", 199, 0, 0, 0, 12592, 0},
		{"2f", "L10", 199, 0, 0, 0, 13720, 0},
		{"2f", "P1", 0, 0, 0, 4, 12, 0},
		{"2f", "P2", 2, 0, 0, 2, 1455, 0},
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
		if got.JoinedRows != c.joined || got.TransferredRows != c.moved || got.TransferredBytes != c.bytes || res.FlatRowCount() != c.flat {
			t.Errorf("%s/%s: joined %d moved %d rows / %d B flat %d, want %d %d %d %d",
				c.method, c.query, got.JoinedRows, got.TransferredRows, got.TransferredBytes, res.FlatRowCount(),
				c.joined, c.moved, c.bytes, c.flat)
		}
		limit := c.scannedBefore
		if c.scannedAtMostAs > 0 {
			limit = c.scannedAtMostAs
		}
		if got.ScannedTriples > limit {
			t.Errorf("%s/%s: %d postings touched, want at most %d (%d before joins probed)",
				c.method, c.query, got.ScannedTriples, limit, c.scannedBefore)
		}
	}
}
