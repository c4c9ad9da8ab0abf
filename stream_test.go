package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/watdiv"
)

// drainSorted collects a stream into copied rows and sorts them like
// Run does, so the two paths can be compared bit for bit.
func drainSorted(t *testing.T, rows *Rows) [][]TermID {
	t.Helper()
	var out [][]TermID
	for rows.Next() {
		out = append(out, append([]TermID{}, rows.Row()...))
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func equalRowSets(a, b [][]TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRunStreamMatchesRun is the redesign's bit-identity gate: for
// every LUBM and bound-WatDiv benchmark query, the sorted stream and
// the materialized result are identical.
func TestRunStreamMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline sweep")
	}
	lds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1, Compact: true})
	wds := watdiv.GenerateData(watdiv.DataConfig{Scale: 200, Seed: 1})

	type namedQuery struct {
		name string
		q    *Query
	}
	type workload struct {
		label   string
		ds      *Dataset
		queries []namedQuery
	}
	var lqs []namedQuery
	for _, name := range lubm.QueryNames {
		lqs = append(lqs, namedQuery{name, lubm.Query(name)})
	}
	var wqs []namedQuery
	for _, tpl := range watdiv.Templates(1) {
		if tpl.Query == nil || len(tpl.Query.Patterns) < 2 {
			continue
		}
		// Binding the walk's start variable can disconnect the join
		// graph; those templates are unplannable without Cartesian
		// products (same filter the engine benchmark applies).
		q := tpl.Bind(wds, 1)
		if jg, err := querygraph.NewJoinGraph(q); err != nil || !jg.Connected(jg.All()) {
			continue
		}
		wqs = append(wqs, namedQuery{fmt.Sprintf("W%d", tpl.ID), q})
		if len(wqs) == 5 {
			break
		}
	}
	for _, wl := range []workload{{"lubm", lds, lqs}, {"watdiv", wds, wqs}} {
		sys, err := Open(wl.ds, WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, nq := range wl.queries {
			want, err := sys.RunQuery(context.Background(), nq.q)
			if err != nil {
				t.Fatalf("%s/%s: Run: %v", wl.label, nq.name, err)
			}
			rows, err := sys.RunStreamQuery(context.Background(), nq.q)
			if err != nil {
				t.Fatalf("%s/%s: RunStream: %v", wl.label, nq.name, err)
			}
			got := drainSorted(t, rows)
			if !equalRowSets(got, want.Rows) {
				t.Errorf("%s/%s: stream and Run disagree (%d vs %d rows)",
					wl.label, nq.name, len(got), len(want.Rows))
			}
			if res := rows.Result(); res == nil || res.Returned != int64(len(want.Rows)) {
				t.Errorf("%s/%s: stream Result.Returned = %v, want %d",
					wl.label, nq.name, res, len(want.Rows))
			}
		}
		sys.Close()
	}
}

// TestStreamBoundedMemory is the memory acceptance test: a result too
// big for the per-query budget fails the materializing path with a
// typed budget error, and streams to completion on RunStream under the
// same budget.
func TestStreamBoundedMemory(t *testing.T) {
	ds := NewDataset()
	for i := 0; i < 300; i++ {
		for j := 0; j < 300; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	// One node makes the root scan dedup-free, so the stream retains
	// one chunk, no seen-set.
	sys, err := Open(ds, WithNodes(1), WithMemoryBudget(1<<21, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const src = `SELECT * WHERE { ?a <n> ?b . }`
	if _, err := sys.Run(context.Background(), src); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("materializing Run under budget = %v, want budget trip", err)
	}
	rows, err := sys.RunStream(context.Background(), src)
	if err != nil {
		t.Fatalf("RunStream under the same budget: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if n != 300*300 {
		t.Fatalf("streamed %d rows, want %d", n, 300*300)
	}
}

// TestStreamLimit: WithLimit caps both paths on the same prefix of the
// deterministic emission order.
func TestStreamLimit(t *testing.T) {
	ds := NewDataset()
	for i := 0; i < 100; i++ {
		ds.Add(fmt.Sprintf("s%02d", i), "p", "o")
	}
	sys, err := Open(ds, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const src = `SELECT * WHERE { ?s <p> ?o . }`
	res, err := sys.Run(context.Background(), src, WithLimit(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 || res.RowCount() != 7 {
		t.Fatalf("limited Run returned %d rows (RowCount %d), want 7", len(res.Rows), res.RowCount())
	}
	rows, err := sys.RunStream(context.Background(), src, WithLimit(7))
	if err != nil {
		t.Fatal(err)
	}
	got := drainSorted(t, rows)
	if !equalRowSets(got, res.Rows) {
		t.Fatal("limited stream and limited Run disagree")
	}
	sres := rows.Result()
	if sres.Returned != 7 {
		t.Fatalf("stream Returned = %d, want 7", sres.Returned)
	}
	if s := res.String(); !strings.HasPrefix(s, "7 rows") {
		t.Fatalf("ExecResult.String() = %q, want \"7 rows\" prefix", s)
	}
	// A streamed result has no materialized Rows; String must still
	// report the delivered count, not 0.
	if s := sres.String(); !strings.HasPrefix(s, "7 rows") {
		t.Fatalf("streamed ExecResult.String() = %q, want \"7 rows\" prefix", s)
	}
}

// TestStreamCancelMidway: canceling the context mid-stream surfaces an
// error on the cursor and still finalizes the call.
func TestStreamCancelMidway(t *testing.T) {
	ds := NewDataset()
	for i := 0; i < 3000; i++ {
		ds.Add(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
	}
	sys, err := Open(ds, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := sys.RunStream(ctx, `SELECT * WHERE { ?s <p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("canceled stream ended cleanly")
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
}

// TestStreamCrossNodeDuplicates: the roots that still hand the stream
// copies of a row, from different nodes and different chunks, must have
// the seen-set drop exactly those copies, so the stream equals
// Reference. Under path-bmc, which names no home, every element holding
// the hub m holds all of m's 600 out-edges, and the 60 elements fill all
// four nodes, so a scan root emits each edge on every node. Under
// hash-so a root scan keeps a row on its subject's home only, but a
// projection that drops the subject maps the 60 subjects' rows onto one
// row per object.
func TestStreamCrossNodeDuplicates(t *testing.T) {
	hub, grid := NewDataset(), NewDataset()
	for i := 0; i < 60; i++ {
		hub.Add(fmt.Sprintf("a%d", i), "n", "m")
		for j := 0; j < 60; j++ {
			grid.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	for j := 0; j < 600; j++ {
		hub.Add("m", "n", fmt.Sprintf("c%d", j))
	}
	for _, c := range []struct {
		method, query string
		ds            *Dataset
	}{
		{"path-bmc", `SELECT * WHERE { ?a <n> ?b . }`, hub},
		{"hash-so", `SELECT ?b WHERE { ?a <n> ?b . }`, grid},
	} {
		ds := c.ds
		m, err := PartitionMethod(c.method)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := Open(ds, WithMethod(m), WithNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sys.RunStreamQuery(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSorted(t, rows)
		sys.Close()
		if !equalRowSets(got, want.Rows) {
			t.Fatalf("%s: stream returned %d rows, Reference %d", c.method, len(got), len(want.Rows))
		}
		if flat := rows.Result().FlatRowCount(); flat < 3*int64(len(got))/2 {
			t.Fatalf("%s: root gathered %d rows for %d distinct; the case needs cross-node duplicates", c.method, flat, len(got))
		}
	}
}

// TestStreamScan: Scan decodes the current row through the dictionary.
func TestStreamScan(t *testing.T) {
	ds := NewDataset()
	ds.Add("alice", "knows", "bob")
	sys, err := Open(ds, WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rows, err := sys.RunStream(context.Background(), `SELECT ?a ?b WHERE { ?a <knows> ?b . }`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	dst := make([]string, len(rows.Vars()))
	if err := rows.Scan(dst); err == nil {
		t.Fatal("Scan before Next must fail")
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if err := rows.Scan(dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != "alice" || dst[1] != "bob" {
		t.Fatalf("Scan = %v", dst)
	}
}

// TestStreamSlowLogRowCount: satellite 2 — a streamed call's slow-log
// entry reports the delivered row count, not a materialized length.
func TestStreamSlowLogRowCount(t *testing.T) {
	ds := NewDataset()
	for i := 0; i < 20; i++ {
		ds.Add(fmt.Sprintf("s%d", i), "p", "o")
	}
	sys, err := Open(ds, WithNodes(2),
		WithObservability(WithSlowQueryLog(8, 0))) // threshold 0: log everything
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rows, err := sys.RunStream(context.Background(), `SELECT * WHERE { ?s <p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	entries := sys.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow-log entry for the streamed call")
	}
	if entries[0].Rows != n {
		t.Fatalf("slow-log Rows = %d, streamed %d", entries[0].Rows, n)
	}
	if !strings.Contains(entries[0].String(), fmt.Sprintf("rows=%d", n)) {
		t.Fatalf("slow-log line %q misses rows=%d", entries[0].String(), n)
	}
}
