package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

// BenchmarkStoreBuild times engine.New over the spine's dataset and
// placement — LUBM-10 under hash-so on ten nodes — which is all sorting:
// four permutations per node. `make bench-smoke` runs it once, so a
// build-time regression shows without the spine.
func BenchmarkStoreBuild(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := New(ds.Dict, placement); e.Nodes() != 10 {
			b.Fatal("engine lost nodes")
		}
	}
}

// BenchmarkStarJoin times the local joins that own the spine's
// percentiles — L7's and L8's stars on ?x, LUBM-10 under hash-so on ten
// nodes — both ways a node can join them: the trie join merging the
// leaves' sorted ranges (sortedJoin) and the test-only hash fold that
// reads the leaves and hashes them (foldNode). Every iteration opens the
// leaves afresh, as a query does, and joins on every node.
func BenchmarkStarJoin(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds.Dict, placement)
	env := ExecEnv{Snap: e.Snapshot()}
	const prefixes = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <" + lubm.UB + ">\n"
	for _, star := range []struct{ name, src string }{
		{"L7", `?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?z . ?x ub:undergraduateDegreeFrom ?y`},
		{"L8", `?x ub:takesCourse ?z . ?x rdf:type ub:UndergraduateStudent . ?x ub:advisor ?y`},
	} {
		q := sparql.MustParse(prefixes + "SELECT * WHERE { " + star.src + " . }")
		scans := make([]*plan.Node, len(q.Patterns))
		for i := range scans {
			scans[i] = plan.NewScan(i, 1, cost.Default)
		}
		benchLocalJoin(b, e, env, star.name, plan.NewJoin(plan.LocalJoin, "x", scans, 1, cost.Default), q)
	}
}

// BenchmarkLocalJoin times the local joins 2f leaves in L7–L10's plans
// (LUBM-10, ten nodes, TD-Auto's plans): cycles and joins on several
// variables at once, which the trie join intersects level by level.
// Both ways, every iteration opens the leaves afresh and joins on every
// node, against the test-only hash fold over the nodes' reads.
func BenchmarkLocalJoin(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.TwoHopForward.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds.Dict, placement)
	env := ExecEnv{Snap: e.Snapshot()}
	for _, name := range []string{"L7", "L8", "L9", "L10"} {
		q := lubm.Query(name)
		var local *plan.Node
		var walk func(p *plan.Node)
		walk = func(p *plan.Node) {
			if p.Alg == plan.LocalJoin && (local == nil || p.Set.Len() > local.Set.Len()) {
				local = p
			}
			for _, c := range p.Children {
				walk(c)
			}
		}
		walk(optimizeFor(b, ds, q, partition.TwoHopForward, opt.TDAuto).Plan)
		benchLocalJoin(b, e, env, fmt.Sprintf("%s/on_%s", name, local.JoinVar), local, q)
	}
}

// benchLocalJoin times the local join p both ways, leaves opened inside
// the timed loop, and fails when the two disagree on the rows.
func benchLocalJoin(b *testing.B, e *Engine, env ExecEnv, name string, p *plan.Node, q *sparql.Query) {
	ctx := context.Background()
	want := -1
	for _, way := range []string{"merge", "fold"} {
		b.Run(name+"/"+way, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				in, err := e.joinInputs(ctx, p, q, env, newTrace(p), &start)
				if err != nil {
					b.Fatal(err)
				}
				vars := make([][]string, len(in.sizes))
				for i, r := range in.rels[0] {
					vars[i] = inputVars(r, in.leaves[i])
				}
				join := newSortedJoin(vars, in.sizes, in.leaves, joinOrder(vars, in.sizes))
				rows := 0
				for node, rels := range in.rels {
					var out *Relation
					if way == "merge" {
						out, err = join.join(ctx, nil, "local join", node, rels)
					} else {
						out, err = foldNode(ctx, node, rels, in.leaves)
					}
					if err != nil {
						b.Fatal(err)
					}
					rows += len(out.Rows)
				}
				if want < 0 {
					want = rows
				} else if rows != want {
					b.Fatalf("%s joined %d rows, the other way %d", way, rows, want)
				}
			}
		})
	}
}

// foldNode is the test-only hash fold of one node's join: the node's
// inputs, leaves read in full, folded by hashJoin in input order.
func foldNode(ctx context.Context, node int, rels []*Relation, leaves []*scanLeaf) (*Relation, error) {
	reads := make([]*Relation, len(rels))
	for i, rel := range rels {
		if rel == nil {
			var err error
			if rel, err = leaves[i].read(node); err != nil {
				return nil, err
			}
		}
		reads[i] = rel
	}
	return hashFold(ctx, reads)
}

// BenchmarkBroadcastJoin times the broadcast joins that own warm-mix's
// tail — L8's two and L10's on ?z, LUBM-10 under hash-so on ten nodes,
// in the plans TD-Auto picks — both ways a node can join them: merging
// the sorted inputs (sortedJoin) and the test-only hash fold over the
// same inputs (foldNode). Every iteration evaluates the join's children
// and gathers its small inputs afresh with the timer stopped, as a query
// does, then joins on every node. moved/op is the rows the join shipped:
// one per small row where the broadcast is homed (L8's on ?z: 1,375),
// one per small row and node where it is not (L8's on ?y, whose largest
// input is anchored on ?x, and L10's: 27,040 and 1,670).
func BenchmarkBroadcastJoin(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds.Dict, placement)
	env := ExecEnv{Snap: e.Snapshot()}
	ctx := context.Background()
	for _, name := range []string{"L8", "L10"} {
		q := lubm.Query(name)
		var joins []*plan.Node
		var walk func(p *plan.Node)
		walk = func(p *plan.Node) {
			if p.Alg == plan.BroadcastJoin && (name == "L8" || p.JoinVar == "z") {
				joins = append(joins, p)
			}
			for _, c := range p.Children {
				walk(c)
			}
		}
		walk(optimizeFor(b, ds, q, partition.HashSO, opt.TDAuto).Plan)
		for _, p := range joins {
			open := func() (in opInputs, vars [][]string, moved int64) {
				start := time.Now()
				tr := newTrace(p)
				in, err := e.joinInputs(ctx, p, q, env, tr, &start)
				if err != nil {
					b.Fatal(err)
				}
				vars = make([][]string, len(in.sizes))
				for i, r := range in.rels[0] {
					vars[i] = inputVars(r, in.leaves[i])
				}
				return in, vars, tr.TransferredRows
			}
			want := -1
			for _, way := range []string{"merge", "fold"} {
				b.Run(fmt.Sprintf("%s/on_%s/%s", name, p.JoinVar, way), func(b *testing.B) {
					b.ReportAllocs()
					var moved int64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						in, vars, m := open()
						moved = m
						b.StartTimer()
						merge := newSortedJoin(vars, in.sizes, in.leaves, []string{p.JoinVar})
						rows := 0
						for node, rels := range in.rels {
							var out *Relation
							var err error
							if way == "merge" {
								out, err = merge.join(ctx, nil, "broadcast join", node, rels)
							} else {
								out, err = foldNode(ctx, node, rels, in.leaves)
							}
							if err != nil {
								b.Fatal(err)
							}
							rows += len(out.Rows)
						}
						if want < 0 {
							want = rows
						} else if rows != want {
							b.Fatalf("%s joined %d rows, the other way %d", way, rows, want)
						}
					}
					b.ReportMetric(float64(moved), "moved/op")
				})
			}
		}
	}
}

// BenchmarkRootEmit times what result-heavy's root-bound kinds cost the
// engine end to end — S2, J1, SP and F2, and L8 as a broadcast root,
// LUBM-10 under hash-so on ten nodes, TD-Auto's plans — through
// ExecuteStream and a full drain of its chunks, as a served query does.
// first-ns/op is ExecuteStream plus the first NextChunk: what a
// consumer waits for its first rows. S2's root is a scan, the others'
// but L8's a local join and L8's a homed broadcast on ?z, so each of
// their answers leaves once, from its home node, and the stream keeps no
// seen-set; flat/op is the rows the nodes emitted, rows/op the distinct
// answers, and the two are equal (L8: 1,375, where it flattened 2,609
// while its broadcast shipped every copy).
func BenchmarkRootEmit(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds.Dict, placement)
	const prefixes = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <" + lubm.UB + ">\n"
	ctx := context.Background()
	for _, kind := range []struct {
		name string
		q    *sparql.Query
	}{
		{"S2", sparql.MustParse(prefixes + `SELECT ?x ?t WHERE { ?x rdf:type ?t . }`)},
		{"J1", sparql.MustParse(prefixes + `SELECT ?x ?c ?f WHERE { ?x ub:takesCourse ?c . ?f ub:teacherOf ?c . }`)},
		{"SP", sparql.MustParse(prefixes + `SELECT ?p ?a ?n WHERE { ?p ub:publicationAuthor ?a . ?p ub:name ?n . }`)},
		{"F2", sparql.MustParse(prefixes + `SELECT ?x WHERE { ?x ub:advisor ?f . ?p ub:publicationAuthor ?f . ?f ub:teacherOf ?c . }`)},
		{"L8", lubm.Query("L8")},
	} {
		p := optimizeFor(b, ds, kind.q, partition.HashSO, opt.TDAuto).Plan
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			var flat, rows int64
			var first time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				st, err := e.ExecuteStream(ctx, p, kind.q, ExecEnv{})
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; ; n++ {
					chunk, err := st.NextChunk(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if n == 0 {
						first += time.Since(start)
					}
					if chunk == nil {
						break
					}
				}
				flat, rows = st.Result().FlatRowCount(), st.Result().RowCount()
			}
			b.ReportMetric(float64(first.Nanoseconds())/float64(b.N), "first-ns/op")
			b.ReportMetric(float64(flat), "flat/op")
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
