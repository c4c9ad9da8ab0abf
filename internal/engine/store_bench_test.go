package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

// BenchmarkStoreBuild times engine.New over the spine's dataset and
// placement — LUBM-10 under hash-so on ten nodes — which is all sorting:
// four permutations per node. `make bench-smoke` runs it once, so a
// build-time regression shows without the spine.
func BenchmarkStoreBuild(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO{}.Partition(ds, 10)
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

// BenchmarkProbeVsRead is the measurement behind probeRatio: one node's
// join of rows in hand with a scan leaf (?s <p> ?o over a single-
// predicate fragment, every row finding one match), done both ways at
// several ratios of fragment size to rows. Reading costs the same
// whatever the rows are; probing grows with them.
func BenchmarkProbeVsRead(b *testing.B) {
	ctx := context.Background()
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10} {
		ts := make([]rdf.Triple, size)
		for i := range ts {
			ts[i] = rdf.Triple{S: rdf.TermID(i), P: 1, O: rdf.TermID(size + i%97)}
		}
		snap := &Snap{stores: []*store{newStore(ts)}}
		for _, ratio := range []int{1, 4, 8, 16, 64} {
			// Lookups spread over the whole fragment, in no order the
			// index could profit from.
			cur := newRelation([]string{"s"}, size/ratio)
			for _, i := range rand.New(rand.NewSource(1)).Perm(size / ratio) {
				cur.appendCopy([]rdf.TermID{rdf.TermID(i * ratio)})
			}
			leaf := func() *scanLeaf {
				return &scanLeaf{
					snap: snap, rels: make([]*Relation, 1), size: []int{size},
					bp: boundPattern{vars: []string{"s", "o"}, sVar: 0, pVar: -1, oVar: 1, pConst: true, p: 1},
				}
			}
			name := fmt.Sprintf("size=%d/ratio=%d", size, ratio)
			b.Run(name+"/probe", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if out, err := leaf().probe(ctx, 0, cur); err != nil || len(out.Rows) != len(cur.Rows) {
						b.Fatal(len(out.Rows), err)
					}
				}
			})
			b.Run(name+"/read", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rel, err := leaf().read(0)
					if err != nil {
						b.Fatal(err)
					}
					if out, err := hashJoin(ctx, cur, rel); err != nil || len(out.Rows) != len(cur.Rows) {
						b.Fatal(len(out.Rows), err)
					}
				}
			})
		}
	}
}

// BenchmarkStarJoin times the local joins that own the spine's
// percentiles — L7's and L8's stars on ?x, LUBM-10 under hash-so on ten
// nodes — both ways a node can join them: merging the leaves' sorted
// ranges (sortedJoin) and the hash fold that reads, hashes and probes
// them (joinAll). Every iteration opens the leaves afresh, as a query
// does, and joins on every node.
func BenchmarkStarJoin(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO{}.Partition(ds, 10)
	if err != nil {
		b.Fatal(err)
	}
	e := New(ds.Dict, placement)
	env := ExecEnv{Snap: e.Snapshot()}
	ctx := context.Background()
	const prefixes = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <" + lubm.UB + ">\n"
	for _, star := range []struct{ name, src string }{
		{"L7", `?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?z . ?x ub:undergraduateDegreeFrom ?y`},
		{"L8", `?x ub:takesCourse ?z . ?x rdf:type ub:UndergraduateStudent . ?x ub:advisor ?y`},
	} {
		q := sparql.MustParse(prefixes + "SELECT * WHERE { " + star.src + " . }")
		open := func() (leaves []*scanLeaf, vars [][]string, order []int, schema []string) {
			vars = make([][]string, len(q.Patterns))
			sizes := make([]int64, len(q.Patterns))
			leaves = make([]*scanLeaf, len(q.Patterns))
			for i := range q.Patterns {
				var m Metrics
				_, leaf, tr, err := e.eval(ctx, plan.NewScan(i, 1, cost.Default), q, env, &m, "", true)
				if err != nil {
					b.Fatal(err)
				}
				leaves[i], vars[i], sizes[i] = leaf, leaf.bp.vars, tr.OutputRows
			}
			order, schema = foldOrder(vars, sizes)
			return leaves, vars, order, schema
		}
		ways := map[string]func(leaves []*scanLeaf, vars [][]string, order []int, schema []string, node int) (*Relation, error){
			"merge": func(leaves []*scanLeaf, vars [][]string, order []int, schema []string, node int) (*Relation, error) {
				rels := make([]*Relation, len(leaves))
				return newSortedJoin(vars, leaves, order, schema, "x", true).join(ctx, nil, "local join", node, rels)
			},
			"fold": func(leaves []*scanLeaf, vars [][]string, order []int, schema []string, node int) (*Relation, error) {
				rels := make([]*Relation, len(leaves))
				return joinAll(ctx, nil, "local join", node, rels, leaves, order, schema)
			},
		}
		want := -1
		for _, way := range []string{"merge", "fold"} {
			b.Run(star.name+"/"+way, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					leaves, vars, order, schema := open()
					rows := 0
					for node := range leaves[0].rels {
						out, err := ways[way](leaves, vars, order, schema, node)
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
}

// BenchmarkBroadcastJoin times the broadcast joins that own warm-mix's
// tail — L8's two and L10's on ?z, LUBM-10 under hash-so on ten nodes,
// in the plans TD-Auto picks — both ways a node can join them: merging
// the sorted inputs (sortedJoin) and the hash fold over the same inputs
// (joinAll). Every iteration evaluates the join's children and gathers
// its small inputs afresh with the timer stopped, as a query does, then
// joins on every node.
func BenchmarkBroadcastJoin(b *testing.B) {
	ds := lubm.Generate(lubm.Config{Universities: 10, Seed: 1})
	placement, err := partition.HashSO{}.Partition(ds, 10)
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
		walk(optimizeFor(b, ds, q, partition.HashSO{}, opt.TDAuto).Plan)
		for _, p := range joins {
			open := func() (in foldInputs, vars [][]string, order []int, schema []string) {
				var m Metrics
				start := time.Now()
				in, err := e.joinInputs(ctx, p, q, env, &m, newTrace(p), &start)
				if err != nil {
					b.Fatal(err)
				}
				vars = make([][]string, len(in.sizes))
				for i, r := range in.rels[0] {
					vars[i] = inputVars(r, in.leaves[i])
				}
				order, schema = foldOrder(vars, in.sizes)
				return in, vars, order, schema
			}
			want := -1
			for _, way := range []string{"merge", "fold"} {
				b.Run(fmt.Sprintf("%s/on_%s/%s", name, p.JoinVar, way), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						in, vars, order, schema := open()
						b.StartTimer()
						merge := newSortedJoin(vars, in.leaves, order, schema, p.JoinVar, false)
						rows := 0
						for node, rels := range in.rels {
							var out *Relation
							var err error
							if way == "merge" {
								out, err = merge.join(ctx, nil, "broadcast join", node, rels)
							} else {
								out, err = joinAll(ctx, nil, "broadcast join", node, rels, in.leaves, order, schema)
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
	}
}
