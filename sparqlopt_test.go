package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sparqlopt/internal/baseline"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

func mustEstimator(tb testing.TB, q *sparql.Query, s *stats.Stats) *stats.Estimator {
	tb.Helper()
	est, err := stats.NewEstimator(q, s)
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

func tinyDataset() *Dataset {
	ds := NewDataset()
	ds.Add("http://alice", "http://knows", "http://bob")
	ds.Add("http://bob", "http://knows", "http://carol")
	ds.Add("http://alice", "http://worksFor", "http://acme")
	ds.Add("http://bob", "http://worksFor", "http://acme")
	ds.Add("http://acme", "http://inCity", "http://berlin")
	return ds
}

func TestOpenAndRun(t *testing.T) {
	sys, err := Open(tinyDataset(), WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(),
		`SELECT ?x ?y WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`, WithAlgorithm(TDAuto))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	if sys.Term(res.Rows[0][0]) != "http://alice" {
		t.Errorf("x = %s", sys.Term(res.Rows[0][0]))
	}
	formatted := sys.FormatResult(res)
	if !strings.Contains(formatted, "?x\t?y") || !strings.Contains(formatted, "http://alice") {
		t.Errorf("FormatResult = %q", formatted)
	}
}

func TestRunMatchesReferenceForEveryAlgorithm(t *testing.T) {
	ds := tinyDataset()
	src := `SELECT * WHERE { ?x <http://knows> ?y . ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hash-so", "2f", "path-bmc", "un-1hop"} {
		m, err := PartitionMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Open(ds, WithMethod(m), WithNodes(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto} {
			got, err := sys.Run(context.Background(), src, WithAlgorithm(algo))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, algo, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Errorf("%s/%v: %d rows, want %d", name, algo, len(got.Rows), len(want.Rows))
			}
		}
	}
}

func TestOptimizeExposesCounters(t *testing.T) {
	sys, err := Open(tinyDataset())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Optimize(context.Background(),
		`SELECT * WHERE { ?x <http://knows> ?y . ?y <http://knows> ?z . }`, WithAlgorithm(TDCMD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter.CMDs == 0 || res.Plan == nil {
		t.Errorf("counters not populated: %+v", res.Counter)
	}
	if res.Plan.Validate() != nil {
		t.Error("invalid plan from facade")
	}
}

func TestOpenRejectsBadNodes(t *testing.T) {
	if _, err := Open(tinyDataset(), WithNodes(-1)); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestParseQueryError(t *testing.T) {
	if _, err := ParseQuery("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadWriteNTriples(t *testing.T) {
	var sb strings.Builder
	if err := WriteNTriples(&sb, tinyDataset()); err != nil {
		t.Fatal(err)
	}
	ds, err := ReadNTriples(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != tinyDataset().Len() {
		t.Errorf("round trip lost triples: %d", ds.Len())
	}
}

func TestReplicationFactor(t *testing.T) {
	sys, err := Open(tinyDataset(), WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	if rf := sys.ReplicationFactor(); rf < 1 || rf > 2.001 {
		t.Errorf("hash-so replication factor = %v, want within [1, 2]", rf)
	}
	if sys.Method().Name() != "Hash-SO" {
		t.Errorf("default method = %s", sys.Method().Name())
	}
}

// TestUnsupportedQueryTyped pins the typed failure of well-formed
// queries the optimizer cannot plan — a disconnected BGP and one over
// 64 patterns — through Run and RunStream, for every serving
// algorithm, with the plan cache off and on.
func TestUnsupportedQueryTyped(t *testing.T) {
	var chain strings.Builder
	chain.WriteString("SELECT * WHERE {")
	for i := 0; i < 65; i++ {
		fmt.Fprintf(&chain, " ?v%d <http://knows> ?v%d .", i, i+1)
	}
	chain.WriteString(" }")
	queries := map[string]string{
		"disconnected": `SELECT * WHERE { ?x <http://knows> ?y . ?o <http://inCity> ?c . }`,
		"65 patterns":  chain.String(),
	}
	for _, cache := range []int{0, 16} {
		sys, err := Open(tinyDataset(), WithNodes(3), WithPlanCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range queries {
			for _, algo := range []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto, Greedy} {
				if _, err := sys.Run(context.Background(), src, algo); !errors.Is(err, ErrUnsupportedQuery) {
					t.Errorf("cache=%d %s %v: Run error %v, want ErrUnsupportedQuery", cache, name, algo, err)
				}
				rows, err := sys.RunStream(context.Background(), src, algo)
				if err == nil {
					rows.Close()
				}
				if !errors.Is(err, ErrUnsupportedQuery) {
					t.Errorf("cache=%d %s %v: RunStream error %v, want ErrUnsupportedQuery", cache, name, algo, err)
				}
			}
		}
		sys.Close()
	}
}

func TestConcurrentQueries(t *testing.T) {
	// A System must support concurrent Optimize/Execute callers (the
	// engine's stores are read-only after Open).
	sys, err := Open(tinyDataset(), WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * WHERE { ?x <http://knows> ?y . }`,
		`SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`,
		`SELECT * WHERE { ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for i := 0; i < 10; i++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				if _, err := sys.Run(context.Background(), q, WithAlgorithm(TDAuto)); err != nil {
					errs <- err
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAlgorithmNamesMatchTable: the serving names AlgorithmByName
// accepts are the optimizer table's entries that run through
// opt.Optimize, under the same algorithm.
func TestAlgorithmNamesMatchTable(t *testing.T) {
	serving := 0
	for _, o := range baseline.Optimizers {
		algo, ok := AlgorithmByName(o.CLI)
		if !ok {
			continue
		}
		serving++
		if algo.String() != o.Name {
			t.Errorf("%s: AlgorithmByName gives %s, the table %s", o.CLI, algo, o.Name)
		}
	}
	if serving != 5 {
		t.Errorf("%d of the table's names are serving names, want 5", serving)
	}
}
