package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
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
	st, log := openLogged(t, e, rootKind{"big", big, optimizeFor(t, ds, big, m, opt.TDAuto).Plan}, ExecEnv{})
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
	// Every node's rows fill whole chunks but the node's last: no chunk
	// holds two nodes' rows.
	var want []int
	for node := 0; node < placement.Nodes; node++ {
		for rows := log.rows[node]; rows > 0; rows -= streamChunkRows {
			want = append(want, min(rows, streamChunkRows))
		}
	}
	if len(log.ran) != placement.Nodes || len(want) <= total/streamChunkRows+1 {
		t.Fatalf("the stream stepped nodes %v, emitting %v rows: the test shows nothing", log.ran, log.rows)
	}
	if !slices.Equal(sizes, want) {
		t.Errorf("%d rows arrived in chunks of %v, want %v", total, sizes, want)
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

// stepLog wraps a root's node work and records the steps the stream
// runs: the nodes in the order their steps ended, and per node the rows
// it emitted and the bytes its arena charged.
type stepLog struct {
	nodeWork
	mu      sync.Mutex
	ran     []int
	rows    map[int]int
	charged map[int]int64
}

func (l *stepLog) step(ctx context.Context, node int) (*Relation, error) {
	rel, err := l.nodeWork.step(ctx, node)
	if err == nil {
		l.mu.Lock()
		l.ran = append(l.ran, node)
		l.rows[node], l.charged[node] = len(rel.Rows), rel.charged
		l.mu.Unlock()
	}
	return rel, err
}

// rootKind is one of result-heavy's root-bound queries, planned.
type rootKind struct {
	name string
	q    *sparql.Query
	p    *plan.Node
}

// rootKinds returns S2 (a root scan) and J1 (a root local join) over
// LUBM-2 under hash-so on ten nodes with TD-Auto's plans, and the
// dataset and placement they run on.
func rootKinds(t *testing.T) (*rdf.Dataset, *partition.Placement, []rootKind) {
	t.Helper()
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1})
	placement, err := partition.HashSO{}.Partition(ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	const prefixes = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <" + lubm.UB + ">\n"
	var kinds []rootKind
	for _, k := range []struct{ name, src string }{
		{"S2", `SELECT ?x ?t WHERE { ?x rdf:type ?t . }`},
		{"J1", `SELECT ?x ?c ?f WHERE { ?x ub:takesCourse ?c . ?f ub:teacherOf ?c . }`},
	} {
		q := sparql.MustParse(prefixes + k.src)
		kinds = append(kinds, rootKind{k.name, q, optimizeFor(t, ds, q, partition.HashSO{}, opt.TDAuto).Plan})
	}
	if kinds[0].p.Alg != plan.Scan || kinds[1].p.Alg != plan.LocalJoin {
		t.Fatalf("S2's root is %v and J1's %v, want a scan and a local join", kinds[0].p.Alg, kinds[1].p.Alg)
	}
	return ds, placement, kinds
}

// openLogged opens a stream whose root steps go through a stepLog.
func openLogged(t *testing.T, e *Engine, k rootKind, env ExecEnv) (*Stream, *stepLog) {
	t.Helper()
	st, err := e.ExecuteStream(context.Background(), k.p, k.q, env)
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	log := &stepLog{nodeWork: st.src.root.work, rows: map[int]int{}, charged: map[int]int64{}}
	st.src.root.work = log
	return st, log
}

// TestStreamRootStepsLazily: ExecuteStream runs no node's root step, and
// the first chunk runs the steps of the empty nodes in front and of the
// first non-empty node, in node order, and no other: its rows leave
// before the other nodes' root work runs.
func TestStreamRootStepsLazily(t *testing.T) {
	ds, placement, kinds := rootKinds(t)
	e := New(ds.Dict, placement)
	for _, k := range kinds {
		st, log := openLogged(t, e, k, ExecEnv{})
		chunk, err := st.NextChunk(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last := len(log.ran) - 1
		for i, node := range log.ran {
			if node != i {
				t.Fatalf("%s: the stream stepped nodes %v, want 0, 1, … in order", k.name, log.ran)
			}
			if empty := log.rows[i] == 0; empty != (i < last) {
				t.Fatalf("%s: the first chunk stepped nodes %v emitting %v rows, want the empty ones and then the first that emits", k.name, log.ran, log.rows)
			}
		}
		if last < 0 || last == placement.Nodes-1 {
			t.Fatalf("%s: the first chunk stepped nodes %v of %d: the test shows nothing", k.name, log.ran, placement.Nodes)
		}
		if len(chunk) != min(log.rows[last], streamChunkRows) {
			t.Errorf("%s: the first chunk holds %d rows, its node emitted %d", k.name, len(chunk), log.rows[last])
		}
		st.Finish()
	}
}

// TestStreamHoldsTwoRootArenas: a full drain charges the gauge with at
// most two nodes' root arenas at a time — the node the stream
// enumerates and the one whose step runs ahead; each is released when
// the stream moves on — beside the chunk and the seen-set, not with the
// sum of the nodes' arenas.
func TestStreamHoldsTwoRootArenas(t *testing.T) {
	ds, placement, kinds := rootKinds(t)
	e := New(ds.Dict, placement)
	for _, k := range kinds {
		g := resilience.NewBudget(1<<40, 0).NewGauge()
		st, log := openLogged(t, e, k, ExecEnv{Gauge: g})
		below := g.Used()
		drainStream(t, st)
		var arenas []int64
		for _, c := range log.charged {
			arenas = append(arenas, c)
		}
		slices.Sort(arenas)
		var two, sum int64
		for i, c := range arenas {
			if sum += c; i >= len(arenas)-2 {
				two += c
			}
		}
		resident := below + st.chunk.charged + st.seenCharged
		if g.Peak() > resident+two {
			t.Errorf("%s: peak %d B, want at most %d B below the root, %d of the two largest nodes' root arenas and %d of chunk and seen-set; the %d arenas add up to %d B",
				k.name, g.Peak(), below, two, st.chunk.charged+st.seenCharged, len(arenas), sum)
		}
		if sum-two <= st.seenCharged {
			t.Fatalf("%s: the root arenas add up to %d B, the two largest to %d: the test shows nothing", k.name, sum, two)
		}
		if g.Used() != resident {
			t.Errorf("%s: %d B charged after the drain, want %d: the root arenas were not released", k.name, g.Used(), resident)
		}
	}
}

// TestStreamFinishEarly: a stream abandoned after its first chunk, or
// while a root step runs ahead, leaves no goroutine behind, and its
// metrics, trace, flat-row count and instruments record the root steps
// that ran, no more.
func TestStreamFinishEarly(t *testing.T) {
	ds, placement, kinds := rootKinds(t)
	e := New(ds.Dict, placement)
	reg := obs.NewRegistry()
	e.SetInstruments(NewInstruments(reg))
	scanned := reg.Counter("engine_scanned_triples_total", "")
	for _, k := range kinds {
		full, err := e.ExecuteEnv(context.Background(), k.p, k.q, ExecEnv{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ahead := range []bool{false, true} {
			id := fmt.Sprintf("%s/ahead=%v", k.name, ahead)
			before, counted := runtime.NumGoroutine(), scanned.Value()
			st, log := openLogged(t, e, k, ExecEnv{})
			for chunks := 0; chunks == 0 || ahead && st.src.ahead == nil; chunks++ {
				if chunk, err := st.NextChunk(context.Background()); err != nil || chunk == nil {
					t.Fatalf("%s: chunk %d: %v, %d rows", id, chunks, err, len(chunk))
				}
			}
			st.Finish()
			res := st.Result()
			var rows int64
			for _, n := range log.rows {
				rows += int64(n)
			}
			if res.FlatRowCount() != rows || res.Trace.OutputRows != rows || rows >= full.FlatRowCount() {
				t.Errorf("%s: flat rows %d, root trace %d, the steps that ran emitted %d of the full run's %d",
					id, res.FlatRowCount(), res.Trace.OutputRows, rows, full.FlatRowCount())
			}
			var m Metrics
			res.Trace.addTo(&m)
			if m != res.Metrics || m.ScannedTriples >= full.Metrics.ScannedTriples {
				t.Errorf("%s: metrics %+v, the trace adds up to %+v, the full run's are %+v", id, res.Metrics, m, full.Metrics)
			}
			if got := scanned.Value() - counted; got != res.Metrics.ScannedTriples {
				t.Errorf("%s: the instruments counted %d scanned triples, the run %d", id, got, res.Metrics.ScannedTriples)
			}
			for wait := 0; runtime.NumGoroutine() > before; wait++ {
				if wait == 100 {
					t.Fatalf("%s: %d goroutines after Finish, %d before ExecuteStream", id, runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}
