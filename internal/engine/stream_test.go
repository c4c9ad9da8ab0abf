package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// drainStream collects every chunk of a stream, copying rows out of
// the recycled chunk buffer, and finishes the stream.
func drainStream(t *testing.T, st *Stream) [][]rdf.TermID {
	t.Helper()
	var rows [][]rdf.TermID
	for {
		chunk, err := st.NextChunk(context.Background())
		if err != nil {
			t.Fatalf("NextChunk: %v", err)
		}
		if chunk == nil {
			return rows
		}
		for _, row := range chunk {
			rows = append(rows, append([]rdf.TermID{}, row...))
		}
	}
}

// TestStreamMatchesExecute: the chunked stream must yield exactly the
// rows the materializing path returns — same set, since the stream
// yields arrival order and Execute sorts.
func TestStreamMatchesExecute(t *testing.T) {
	ds := socialDataset()
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	queries := append(testQueries,
		// Narrow projections force the stream's dedup path.
		`SELECT ?o WHERE { ?p <worksFor> ?o . }`,
		`SELECT ?c WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`,
	)
	for _, src := range queries {
		q := sparql.MustParse(src)
		res := optimizeFor(t, ds, q, m, opt.TDAuto)
		want, err := e.Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.ExecuteStream(context.Background(), res.Plan, q, ExecEnv{})
		if err != nil {
			t.Fatalf("%s: ExecuteStream: %v", src, err)
		}
		rows := drainStream(t, st)
		st.Finish()
		got := &Result{Vars: st.Vars(), Rows: rows}
		sortRowsFor(got)
		equalResults(t, got, want, src)
		if sr := st.Result(); sr.Returned != int64(len(want.Rows)) {
			t.Fatalf("%s: Returned = %d, want %d", src, sr.Returned, len(want.Rows))
		}
	}
}

// TestStreamMultiChunk: a result bigger than one chunk arrives across
// several chunks, distinct and complete.
func TestStreamMultiChunk(t *testing.T) {
	ds := rdf.NewDataset()
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	q := sparql.MustParse(`SELECT * WHERE { ?a <n> ?b . }`)
	res := optimizeFor(t, ds, q, m, opt.TDAuto)
	st, err := e.ExecuteStream(context.Background(), res.Plan, q, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	var chunks, total int
	for {
		chunk, err := st.NextChunk(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		if len(chunk) > streamChunkRows {
			t.Fatalf("chunk of %d rows exceeds %d", len(chunk), streamChunkRows)
		}
		chunks++
		total += len(chunk)
	}
	st.Finish()
	if total != 3600 {
		t.Fatalf("streamed %d rows, want 3600", total)
	}
	if chunks < 3600/streamChunkRows {
		t.Fatalf("only %d chunks for %d rows", chunks, total)
	}
}

// TestStreamChunkSizedToResult: the chunk buffer is allocated for the
// root's output when that is smaller than a full chunk — a two-row point
// read holds two rows, not 1 024 — while a 10⁵-row result still arrives
// in full 1 024-row chunks and a short last one.
func TestStreamChunkSizedToResult(t *testing.T) {
	// The two advisor triples live on node 1 only, so the root's output
	// is exactly the two result rows.
	ds := rdf.NewDataset()
	d := ds.Dict
	advisors := []rdf.Triple{
		{S: d.Intern("s0"), P: d.Intern("advisor"), O: d.Intern("f0")},
		{S: d.Intern("s0"), P: d.Intern("advisor"), O: d.Intern("f1")},
	}
	e := New(d, &partition.Placement{Nodes: 4, Triples: [][]rdf.Triple{nil, advisors, nil, nil}})
	small := sparql.MustParse(`SELECT * WHERE { <s0> <advisor> ?f . }`)
	st, err := e.ExecuteStream(context.Background(), plan.NewScan(0, 1, cost.Default), small, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainStream(t, st); len(rows) != 2 {
		t.Fatalf("streamed %d rows, want 2", len(rows))
	}
	if cap(st.chunk.Rows) != 2 || cap(st.chunk.arena) != 2 {
		t.Errorf("two-row result's chunk has room for %d rows, %d terms; want 2 and 2", cap(st.chunk.Rows), cap(st.chunk.arena))
	}

	ds = rdf.NewDataset()
	for i := 0; i < 250; i++ {
		for j := 0; j < 400; j++ {
			ds.Add(fmt.Sprintf("a%d", i), "n", fmt.Sprintf("b%d", j))
		}
	}
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e = New(ds.Dict, placement)
	big := sparql.MustParse(`SELECT * WHERE { ?a <n> ?b . }`)
	st, err = e.ExecuteStream(context.Background(), optimizeFor(t, ds, big, m, opt.TDAuto).Plan, big, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 250 * 400
	var sizes []int
	for {
		chunk, err := st.NextChunk(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		sizes = append(sizes, len(chunk))
	}
	st.Finish()
	if len(sizes) != (total+streamChunkRows-1)/streamChunkRows {
		t.Fatalf("%d rows arrived in %d chunks", total, len(sizes))
	}
	for i, n := range sizes[:len(sizes)-1] {
		if n != streamChunkRows {
			t.Errorf("chunk %d holds %d rows, want %d", i, n, streamChunkRows)
		}
	}
	if last := sizes[len(sizes)-1]; last != total%streamChunkRows {
		t.Errorf("last chunk holds %d rows, want %d", last, total%streamChunkRows)
	}
}

// TestStreamDedup: a projection that collapses rows must stream each
// distinct row once, like the materializing path.
func TestStreamDedup(t *testing.T) {
	ds := socialDataset()
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	q := sparql.MustParse(`SELECT ?o WHERE { ?p <worksFor> ?o . }`)
	res := optimizeFor(t, ds, q, m, opt.TDAuto)
	st, err := e.ExecuteStream(context.Background(), res.Plan, q, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	st.Finish()
	if len(rows) != 2 { // acme, globex — five bindings collapse to two
		t.Fatalf("streamed %d rows, want 2 distinct orgs", len(rows))
	}
	seen := map[rdf.TermID]bool{}
	for _, row := range rows {
		if seen[row[0]] {
			t.Fatalf("duplicate row %v in stream", row)
		}
		seen[row[0]] = true
	}
}

// TestStreamCancel: a canceled context fails NextChunk with a phase-
// annotated error.
func TestStreamCancel(t *testing.T) {
	ds := socialDataset()
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	q := sparql.MustParse(`SELECT * WHERE { ?p <worksFor> ?o . }`)
	res := optimizeFor(t, ds, q, m, opt.TDAuto)
	st, err := e.ExecuteStream(context.Background(), res.Plan, q, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.NextChunk(ctx); err == nil {
		t.Fatal("NextChunk on a canceled context must fail")
	}
	st.Finish()
}

// TestStreamFinishIdempotent: Finish may be called repeatedly (drain
// path plus deferred cleanup) without double-counting metrics.
func TestStreamFinishIdempotent(t *testing.T) {
	ds := socialDataset()
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	q := sparql.MustParse(`SELECT * WHERE { ?p <worksFor> ?o . }`)
	res := optimizeFor(t, ds, q, m, opt.TDAuto)
	st, err := e.ExecuteStream(context.Background(), res.Plan, q, ExecEnv{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	st.Finish()
	st.Finish()
	r := st.Result()
	if r.Returned != int64(len(rows)) {
		t.Fatalf("Returned = %d, want %d", r.Returned, len(rows))
	}
}

// TestRowSetExact: the seen-set's answers must not depend on its hash.
// With the hash replaced by a constant (every row collides) and by one
// bit, add must agree with a map[string] oracle row for row, and the
// arena must hold the distinct rows in first-occurrence order, across
// several table growths and row widths.
func TestRowSetExact(t *testing.T) {
	hashes := map[string]func([]rdf.TermID) uint64{
		"constant": func([]rdf.TermID) uint64 { return 7 },
		"one-bit":  func(row []rdf.TermID) uint64 { return hashRow(row) & 1 },
		"hashRow":  hashRow,
	}
	for name, hash := range hashes {
		for width := 1; width <= 12; width++ {
			rng := rand.New(rand.NewSource(int64(width)))
			set := newRowSet(width, hash)
			oracle := map[string]bool{}
			var order [][]rdf.TermID
			row := make([]rdf.TermID, width)
			// 600 draws from ~400 possible rows: about half the adds are
			// duplicates and the table doubles six times from 16 slots.
			for i := 0; i < 600; i++ {
				k := rng.Intn(400)
				clear(row)
				row[k%width] = rdf.TermID(k / width)
				key := fmt.Sprint(row)
				if fresh := set.add(row); fresh == oracle[key] {
					t.Fatalf("%s width %d: add(%v) = %v on draw %d, oracle says seen = %v", name, width, row, fresh, i, oracle[key])
				}
				if !oracle[key] {
					oracle[key] = true
					order = append(order, append([]rdf.TermID{}, row...))
				}
			}
			if int(set.n) != len(order) || len(set.arena) != len(order)*width {
				t.Fatalf("%s width %d: set holds %d rows (%d arena cells), oracle %d", name, width, set.n, len(set.arena), len(order))
			}
			for i, want := range order {
				if got := set.arena[i*width : (i+1)*width]; !equalRows(got, want) {
					t.Fatalf("%s width %d: arena row %d = %v, first-occurrence order wants %v", name, width, i, got, want)
				}
			}
			if len(set.slots) < 2*len(order) || len(set.slots) > max(4*len(order), rowSetMinSlots) {
				t.Fatalf("%s width %d: %d slots for %d rows, want load in [1/4, 1/2]", name, width, len(set.slots), len(order))
			}
			if want := int64(cap(set.arena)+len(set.slots)) * 4; set.bytes() != want {
				t.Fatalf("%s width %d: bytes() = %d, allocated %d", name, width, set.bytes(), want)
			}
		}
	}
}

// sortRowsFor orders a result's rows like the materializing path does.
func sortRowsFor(r *Result) {
	rel := &Relation{Vars: r.Vars, Rows: r.Rows}
	rel.sortRows()
	r.Rows = rel.Rows
}
