package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
	"sparqlopt/internal/workload/randquery"
	"sparqlopt/internal/workload/watdiv"
)

// checkTracked holds CollectTracked to CollectSnapshot, the scanning
// reference, on every pattern of q: Card and every binding count must
// be equal. It returns the tracked statistics.
func checkTracked(t *testing.T, label string, trk *stats.Tracker, snap *rdf.Snapshot, q *sparql.Query) *stats.Stats {
	t.Helper()
	got, err := stats.CollectTracked(trk, snap, q)
	if err != nil {
		t.Fatalf("%s: CollectTracked: %v", label, err)
	}
	want, err := stats.CollectSnapshot(snap, q)
	if err != nil {
		t.Fatalf("%s: CollectSnapshot: %v", label, err)
	}
	if got.Epoch != want.Epoch || len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: epoch %d with %d patterns, scan epoch %d with %d", label,
			got.Epoch, len(got.Patterns), want.Epoch, len(want.Patterns))
	}
	for i := range want.Patterns {
		if !reflect.DeepEqual(got.Patterns[i], want.Patterns[i]) {
			t.Fatalf("%s: pattern %d (%v): tracked %+v, scanned %+v", label, i,
				q.Patterns[i], got.Patterns[i], want.Patterns[i])
		}
	}
	return got
}

// shape is one single-pattern query and whether a tracker at the
// snapshot's epoch must scan to answer it.
type shape struct {
	tp   sparql.TriplePattern
	scan bool
}

// dangling is a term interned in the dictionary but held by no triple.
const dangling = "http://in-the-dictionary/in-no-triple"

// shapesOf derives patterns of every shape from two triples of the
// data: each of the 8 constant/variable combinations of (S, P, O),
// constants that do not occur together, the dangling constant,
// repeated variables, and an unknown constant in each position.
func shapesOf(dict *rdf.Dict, tr, other rdf.Triple) []shape {
	c := func(id rdf.TermID) sparql.Term { return sparql.I(dict.Term(id)) }
	v := sparql.V
	var out []shape
	for mask := 0; mask < 8; mask++ {
		tp := sparql.TriplePattern{S: v("s"), P: v("p"), O: v("o")}
		if mask&1 != 0 {
			tp.S = c(tr.S)
		}
		if mask&2 != 0 {
			tp.P = c(tr.P)
		}
		if mask&4 != 0 {
			tp.O = c(tr.O)
		}
		out = append(out, shape{tp, tp.P.IsVar() || !tp.S.IsVar() && !tp.O.IsVar()})
	}
	u, d := sparql.I("http://unknown/term"), sparql.I(dangling)
	return append(out,
		shape{sparql.TriplePattern{S: c(other.S), P: c(tr.P), O: v("o")}, false},
		shape{sparql.TriplePattern{S: v("s"), P: c(tr.P), O: c(other.O)}, false},
		shape{sparql.TriplePattern{S: c(tr.S), P: c(tr.P), O: c(other.O)}, true},
		shape{sparql.TriplePattern{S: d, P: c(tr.P), O: v("o")}, false},
		shape{sparql.TriplePattern{S: v("s"), P: d, O: v("o")}, false},
		shape{sparql.TriplePattern{S: v("x"), P: c(tr.P), O: v("x")}, true},
		shape{sparql.TriplePattern{S: v("x"), P: v("x"), O: v("o")}, true},
		shape{sparql.TriplePattern{S: c(tr.S), P: v("x"), O: v("x")}, true},
		shape{sparql.TriplePattern{S: v("x"), P: v("x"), O: v("x")}, true},
		shape{sparql.TriplePattern{S: u, P: c(tr.P), O: v("o")}, false},
		shape{sparql.TriplePattern{S: v("s"), P: u, O: v("o")}, false},
		shape{sparql.TriplePattern{S: v("s"), P: v("p"), O: u}, false},
		shape{sparql.TriplePattern{S: u, P: v("p"), O: u}, false},
	)
}

// checkShapes runs checkTracked on the shapes of a few triples of the
// snapshot, one single-pattern query each. With current set, the
// tracker is at the snapshot's epoch, and a pattern must be scanned
// exactly when its shape says so; otherwise every pattern whose
// constants are all known must be scanned.
func checkShapes(t *testing.T, label string, r *rand.Rand, trk *stats.Tracker, snap *rdf.Snapshot, current bool) {
	t.Helper()
	snap.Dict().Intern(dangling)
	ts := snap.Triples()
	for k := 0; k < 6; k++ {
		tr, other := ts[r.Intn(len(ts))], ts[r.Intn(len(ts))]
		for _, sh := range shapesOf(snap.Dict(), tr, other) {
			q := &sparql.Query{Patterns: []sparql.TriplePattern{sh.tp}}
			got := checkTracked(t, label, trk, snap, q)
			scan := sh.scan
			if !current {
				scan = allKnown(snap.Dict(), sh.tp)
			}
			want := 0
			if scan {
				want = 1
			}
			if got.Scanned != want {
				t.Fatalf("%s: %v scanned %d patterns, want %d", label, sh.tp, got.Scanned, want)
			}
		}
	}
}

func allKnown(dict *rdf.Dict, tp sparql.TriplePattern) bool {
	for _, term := range []sparql.Term{tp.S, tp.P, tp.O} {
		if _, ok := dict.Lookup(term.Value); !term.IsVar() && !ok {
			return false
		}
	}
	return true
}

// randomTriples draws n triples over terms t0..t{k-1} with predicates
// among t0..t3: few enough terms that subjects and objects repeat,
// self-loops occur, and predicates also occur as subjects and objects,
// so every repeated-variable shape has matches.
func randomTriples(r *rand.Rand, dict *rdf.Dict, n, k int) []rdf.Triple {
	term := func(k int) rdf.TermID { return dict.Intern(fmt.Sprintf("http://t%d", r.Intn(k))) }
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{S: term(k), P: term(4), O: term(k)}
	}
	return out
}

func TestCollectTrackedShapes(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	ds := rdf.NewDataset()
	ds.AddBatch(randomTriples(r, ds.Dict, 120, 12))
	snap := ds.Snapshot()
	checkShapes(t, "random", r, stats.NewTracker(snap), snap, true)
}

// followed returns a tracker seeded from ds's current snapshot and kept
// current by applying every later commit of ds.
func followed(ds *rdf.Dataset) *stats.Tracker {
	var trk *stats.Tracker
	ds.Subscribe(func(snap *rdf.Snapshot) func(rdf.WriteDelta) {
		trk = stats.NewTracker(snap)
		return func(wd rdf.WriteDelta) { trk.Apply(wd.Triples, wd.Epoch) }
	})
	return trk
}

// TestCollectTrackedAfterIngest: a tracker kept current by Apply from
// the commit hook, across 50 batches that add new terms and re-add
// triples already present, answers every shape as the scan does.
func TestCollectTrackedAfterIngest(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	ds := rdf.NewDataset()
	ds.AddBatch(randomTriples(r, ds.Dict, 40, 12))
	trk := followed(ds)
	for batch := 0; batch < 50; batch++ {
		add := randomTriples(r, ds.Dict, 8, 12+batch)
		present := ds.Snapshot().Triples()
		for k := 0; k < 4; k++ {
			add = append(add, present[r.Intn(len(present))])
		}
		ds.AddBatch(add)
		snap := ds.Snapshot()
		if trk.Epoch() != snap.Epoch() {
			t.Fatalf("batch %d: tracker at epoch %d, snapshot at %d", batch, trk.Epoch(), snap.Epoch())
		}
		if trk.Total() != int64(snap.Len()) {
			t.Fatalf("batch %d: tracker holds %d triples, snapshot %d", batch, trk.Total(), snap.Len())
		}
		checkShapes(t, fmt.Sprintf("batch %d", batch), r, trk, snap, true)
	}
}

// TestCollectTrackedConcurrentIngest: readers collecting at the
// snapshot they pinned, while a writer commits batches whose deltas the
// commit hook applies, always get their own snapshot's statistics —
// never counts from a delta applied between the epoch check and the
// read.
func TestCollectTrackedConcurrentIngest(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ds := rdf.NewDataset()
	ds.AddBatch(randomTriples(r, ds.Dict, 40, 12))
	trk := followed(ds)
	batches := make([][]rdf.Triple, 200)
	for i := range batches {
		batches[i] = randomTriples(r, ds.Dict, 4, 12+i/4)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, b := range batches {
			ds.AddBatch(b)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := ds.Snapshot()
				ts := snap.Triples()
				tr := ts[r.Intn(len(ts))]
				s, p, o := sparql.I(snap.Dict().Term(tr.S)), sparql.I(snap.Dict().Term(tr.P)), sparql.I(snap.Dict().Term(tr.O))
				q := &sparql.Query{Patterns: []sparql.TriplePattern{
					{S: s, P: p, O: sparql.V("o")},
					{S: sparql.V("s"), P: p, O: o},
					{S: sparql.V("s"), P: p, O: sparql.V("o")},
				}}
				got, _ := stats.CollectTracked(trk, snap, q)
				want, _ := stats.CollectSnapshot(snap, q)
				if !reflect.DeepEqual(got.Patterns, want.Patterns) {
					t.Errorf("epoch %d: tracked %+v, scanned %+v", snap.Epoch(), got.Patterns, want.Patterns)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCollectTrackedFallsBack: a tracker one epoch behind the
// snapshot, or one epoch ahead of an older pinned snapshot, must not
// answer from its aggregates; every pattern is scanned.
func TestCollectTrackedFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ds := rdf.NewDataset()
	ds.AddBatch(randomTriples(r, ds.Dict, 60, 12))
	old := ds.Snapshot()
	trk := stats.NewTracker(old)
	var delta rdf.WriteDelta
	off := ds.Subscribe(func(*rdf.Snapshot) func(rdf.WriteDelta) {
		return func(wd rdf.WriteDelta) { delta = wd }
	})
	ds.AddBatch(randomTriples(r, ds.Dict, 30, 16))
	off()
	snap := ds.Snapshot()
	if trk.Epoch()+1 != snap.Epoch() {
		t.Fatalf("tracker at epoch %d, snapshot at %d: want one behind", trk.Epoch(), snap.Epoch())
	}
	checkShapes(t, "behind", r, trk, snap, false)
	trk.Apply(delta.Triples, delta.Epoch)
	checkShapes(t, "ahead", r, trk, old, false)
	checkShapes(t, "caught up", r, trk, snap, true)
}

// TestCollectTrackedWorkloads: L1–L10 on LUBM-2, bound WatDiv
// templates, and random queries of every class whose predicates and
// some subjects/objects are drawn from the LUBM data. L1–L10 must not
// scan at all.
func TestCollectTrackedWorkloads(t *testing.T) {
	lubmDS := lubm.Generate(lubm.Config{Universities: 2, Seed: 1})
	snap := lubmDS.Snapshot()
	trk := stats.NewTracker(snap)
	for _, name := range lubm.QueryNames {
		if st := checkTracked(t, name, trk, snap, lubm.Query(name)); st.Scanned != 0 {
			t.Errorf("%s scanned %d patterns, want 0", name, st.Scanned)
		}
	}

	r := rand.New(rand.NewSource(30))
	triples, dict := snap.Triples(), snap.Dict()
	classes := []querygraph.Class{querygraph.Star, querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense}
	for _, class := range classes {
		for _, n := range []int{4, 8, 12} {
			for seed := int64(0); seed < 3; seed++ {
				q, _ := randquery.Generate(class, n, seed)
				bound := &sparql.Query{}
				for _, tp := range q.Patterns {
					tr := triples[r.Intn(len(triples))]
					tp.P = sparql.I(dict.Term(tr.P))
					switch r.Intn(3) {
					case 0:
						tp.S = sparql.I(dict.Term(tr.S))
					case 1:
						tp.O = sparql.I(dict.Term(tr.O))
					}
					bound.Patterns = append(bound.Patterns, tp)
				}
				checkTracked(t, fmt.Sprintf("randquery %v/%d/%d", class, n, seed), trk, snap, bound)
			}
		}
	}

	wdDS := watdiv.GenerateData(watdiv.DataConfig{Scale: 200, Seed: 1})
	wdSnap := wdDS.Snapshot()
	wdTrk := stats.NewTracker(wdSnap)
	for _, tmpl := range watdiv.Templates(1) {
		q := tmpl.Bind(wdDS, int64(tmpl.ID))
		checkTracked(t, fmt.Sprintf("watdiv %d", tmpl.ID), wdTrk, wdSnap, q)
	}
}

// BenchmarkCollectTracked measures statistics collection for L3–L10
// on LUBM-2 with a current tracker, the serving path's cold-planning
// share outside enumeration.
func BenchmarkCollectTracked(b *testing.B) {
	snap := lubm.Generate(lubm.Config{Universities: 2, Seed: 1}).Snapshot()
	trk := stats.NewTracker(snap)
	for _, name := range lubm.QueryNames[2:] {
		q := lubm.Query(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stats.CollectTracked(trk, snap, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
