package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

// BenchmarkStoreBuild times engine.New over the spine's dataset and
// placement — LUBM-10 under hash-so on ten nodes — which is all sorting:
// three permutations per node. `make bench-smoke` runs it once, so a
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
