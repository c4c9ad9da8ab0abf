package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("a")
	b := d.Intern("b")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if d.Intern("a") != a {
		t.Error("re-interning returned a different ID")
	}
	if d.Term(a) != "a" || d.Term(b) != "b" {
		t.Error("Term round-trip failed")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if id, ok := d.Lookup("b"); !ok || id != b {
		t.Error("Lookup failed")
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup of missing term succeeded")
	}
}

func TestDictZeroValue(t *testing.T) {
	var d Dict
	id := d.Intern("x")
	if d.Term(id) != "x" {
		t.Error("zero-value Dict unusable")
	}
}

func TestTermClass(t *testing.T) {
	cases := []struct {
		term string
		want TermClass
	}{
		{"http://example.org/a", IRI | Plain},
		{"", IRI | Plain},
		{"http://example.org/a b", IRI | Plain},
		{"http://example.org/a&b", IRI},
		{"http://example.org/<a>", IRI},
		{`http://example.org/a\b`, IRI},
		{"http://example.org/a\x7fb", IRI},
		{"http://example.org/a\x1fb", IRI},
		{"http://example.org/caf\u00e9", IRI},
		{"http://example.org/a\u2028b", IRI},
		{"_:b0", BlankNode | Plain},
		{"_:", BlankNode | Plain},
		{"_:b&", BlankNode},
		{"_b0", IRI | Plain},
		{`""`, Literal | Plain},
		{`"A"`, Literal | Plain},
		{`"GraduateStudent12@Department0.University0.edu"`, Literal | Plain},
		{`"`, Literal},
		{`"abc`, Literal},
		{`"a\"b"`, Literal},
		{`"a"b"`, Literal},
		{`"a<b"`, Literal},
		{`"x"@en`, Literal},
		{`"1"^^<http://www.w3.org/2001/XMLSchema#int>`, Literal},
		{"\"caf\u00e9\"", Literal},
	}
	d := NewDict()
	for _, c := range cases {
		text, class := d.Entry(d.Intern(c.term))
		if text != c.term || class != c.want {
			t.Errorf("Intern(%q): entry %q class %#x, want class %#x", c.term, text, class, c.want)
		}
		if class.Kind() != c.want&^Plain || class.Plain() != (c.want&Plain != 0) {
			t.Errorf("class %#x: Kind %d Plain %v", class, class.Kind(), class.Plain())
		}
	}
}

// TestDictCopiesTerms: what Intern keeps is a copy, so a term sliced
// from a longer line does not pin it, whether the copy is packed with
// other terms or, being long, allocated alone.
func TestDictCopiesTerms(t *testing.T) {
	d := NewDict()
	long := strings.Repeat("x", arenaSize)
	for _, line := range []string{"<http://example.org/s> <p> <o> .", "<" + long + "> <p> <o> ."} {
		term := line[1:strings.IndexByte(line, '>')]
		got := d.Term(d.Intern(term))
		if got != term {
			t.Fatalf("Term = %q, want %q", got, term)
		}
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(got))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		if p >= lo && p < lo+uintptr(len(line)) {
			t.Errorf("the interned %d-byte term aliases the caller's line", len(term))
		}
		if id, ok := d.Lookup(term); !ok || d.Term(id) != term {
			t.Errorf("Lookup(%d-byte term) = %d, %v", len(term), id, ok)
		}
	}
}

// TestDictTermPanicsUnassigned: resolving an ID Intern never returned
// panics, in an empty dictionary, inside the last chunk and at the
// first ID of a chunk that does not exist yet.
func TestDictTermPanicsUnassigned(t *testing.T) {
	mustPanic := func(d *Dict, id TermID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Term(%d) of a %d-term dictionary did not panic", id, d.Len())
			}
		}()
		d.Term(id)
	}
	var zero Dict
	mustPanic(&zero, 0)
	d := NewDict()
	d.Intern("a")
	mustPanic(d, 1)
	mustPanic(d, chunkSize-1)
	for i := 1; i < chunkSize; i++ {
		d.Intern(fmt.Sprint(i))
	}
	mustPanic(d, chunkSize)
	mustPanic(d, ^TermID(0))
}

// TestDictConcurrentReads: writers intern several chunks' worth of
// fresh terms while readers resolve every ID published so far, without
// a lock, and check its text and class. Run under -race it also holds
// the publication order to the memory model.
func TestDictConcurrentReads(t *testing.T) {
	const writers, perWriter, readers = 2, 2 * chunkSize, 2
	want := make(map[string]TermClass, writers*perWriter)
	terms := make([][]string, writers)
	for w := range terms {
		for i := 0; i < perWriter; i++ {
			var term string
			var class TermClass
			switch i % 5 {
			case 0:
				term, class = fmt.Sprintf("http://example.org/w%d/%d", w, i), IRI|Plain
			case 1:
				term, class = fmt.Sprintf("http://example.org/<w%d>/%d", w, i), IRI
			case 2:
				term, class = fmt.Sprintf(`"w%d-%d"`, w, i), Literal|Plain
			case 3:
				term, class = fmt.Sprintf(`"w%d-%d"@en`, w, i), Literal
			default:
				term, class = fmt.Sprintf("_:w%db%d", w, i), BlankNode|Plain
			}
			terms[w] = append(terms[w], term)
			want[term] = class
		}
	}
	d := NewDict()
	var wg, rg sync.WaitGroup
	var done atomic.Bool
	for _, ts := range terms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, term := range ts {
				d.Intern(term)
			}
		}()
	}
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			seen := 0
			for last := false; !last; {
				last = done.Load()
				n := d.Len()
				for id := TermID(seen); int(id) < n; id++ {
					text, class := d.Entry(id)
					if c, ok := want[text]; !ok || c != class {
						errs <- fmt.Sprintf("ID %d of %d: %q class %#x, want a written term (class %#x, %v)", id, n, text, class, c, ok)
						return
					}
				}
				seen = n
			}
			if seen != writers*perWriter {
				errs <- fmt.Sprintf("reader saw %d terms, want %d", seen, writers*perWriter)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for term := range want {
		if id, ok := d.Lookup(term); !ok || d.Term(id) != term {
			t.Errorf("Lookup(%q) = %d, %v", term, id, ok)
		}
	}
}

func TestDatasetAddAndString(t *testing.T) {
	ds := NewDataset()
	tr := ds.Add("s", "p", "o")
	if ds.Len() != 1 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if got := ds.String(tr); got != "<s> <p> <o>" {
		t.Errorf("String = %q", got)
	}
}

func TestTripleLess(t *testing.T) {
	a := Triple{1, 1, 1}
	cases := []struct {
		b    Triple
		want bool
	}{
		{Triple{2, 0, 0}, true},
		{Triple{1, 2, 0}, true},
		{Triple{1, 1, 2}, true},
		{Triple{1, 1, 1}, false},
		{Triple{0, 9, 9}, false},
	}
	for _, c := range cases {
		if a.Less(c.b) != c.want {
			t.Errorf("Less(%v, %v) = %v, want %v", a, c.b, a.Less(c.b), c.want)
		}
	}
}

func TestGraphEdges(t *testing.T) {
	ds := NewDataset()
	ds.Add("a", "p", "b")
	ds.Add("a", "q", "c")
	ds.Add("b", "p", "c")
	g := NewGraph(ds.Triples)

	aid, _ := ds.Dict.Lookup("a")
	bid, _ := ds.Dict.Lookup("b")
	cid, _ := ds.Dict.Lookup("c")

	if len(g.Out(aid)) != 2 {
		t.Errorf("Out(a) = %v", g.Out(aid))
	}
	if len(g.In(cid)) != 2 {
		t.Errorf("In(c) = %v", g.In(cid))
	}
	if len(g.Out(cid)) != 0 {
		t.Errorf("Out(c) = %v", g.Out(cid))
	}
	if len(g.In(bid)) != 1 || g.In(bid)[0].To != aid {
		t.Errorf("In(b) = %v", g.In(bid))
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
}

func TestGraphVerticesEarlyStop(t *testing.T) {
	ds := NewDataset()
	ds.Add("a", "p", "b")
	ds.Add("c", "p", "d")
	g := NewGraph(ds.Triples)
	n := 0
	g.Vertices(func(TermID) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("visited %d vertices after early stop", n)
	}
}

// Property: interning a list of strings and resolving the IDs returns
// the original strings.
func TestQuickDictRoundTrip(t *testing.T) {
	f := func(terms []string) bool {
		d := NewDict()
		for _, s := range terms {
			if d.Term(d.Intern(s)) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every triple contributes exactly one Out and one In edge.
func TestQuickGraphDegreeSum(t *testing.T) {
	f := func(raw []struct{ S, P, O uint8 }) bool {
		triples := make([]Triple, len(raw))
		for i, r := range raw {
			triples[i] = Triple{TermID(r.S), TermID(r.P), TermID(r.O)}
		}
		g := NewGraph(triples)
		outSum, inSum := 0, 0
		g.Vertices(func(v TermID) bool {
			outSum += len(g.Out(v))
			inSum += len(g.In(v))
			return true
		})
		return outSum == len(triples) && inSum == len(triples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the compressed adjacency is the per-vertex filter of the
// triples — Out(v) the triples with subject v and In(v) those with
// object v, each in triple order — and Vertices visits exactly the
// subjects and objects, ascending. An ID past every vertex has no edges.
func TestQuickGraphMatchesTriples(t *testing.T) {
	f := func(raw []struct{ S, P, O uint8 }) bool {
		triples := make([]Triple, len(raw))
		out, in := map[TermID][]Edge{}, map[TermID][]Edge{}
		for i, r := range raw {
			tr := Triple{TermID(r.S % 32), TermID(r.P), TermID(r.O % 32)}
			triples[i] = tr
			out[tr.S] = append(out[tr.S], Edge{Pred: tr.P, To: tr.O})
			in[tr.O] = append(in[tr.O], Edge{Pred: tr.P, To: tr.S})
		}
		g := NewGraph(triples)
		var visited []TermID
		g.Vertices(func(v TermID) bool { visited = append(visited, v); return true })
		var want []TermID
		for v := TermID(0); v < 32; v++ {
			if out[v] != nil || in[v] != nil {
				want = append(want, v)
			}
		}
		if !slices.Equal(visited, want) || g.NumVertices() != len(want) || g.Len() != len(triples) {
			return false
		}
		for v := TermID(0); v < 40; v++ {
			if !slices.Equal(g.Out(v), out[v]) || !slices.Equal(g.In(v), in[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDatasetEpoch(t *testing.T) {
	ds := NewDataset()
	if ds.Epoch() != 0 {
		t.Fatalf("fresh dataset epoch %d, want 0", ds.Epoch())
	}
	tr := ds.Add("a", "p", "b")
	if ds.Epoch() != 1 {
		t.Errorf("epoch after Add = %d, want 1", ds.Epoch())
	}
	// Re-inserting a present triple is a full no-op: no epoch bump, so
	// caches keyed on the epoch are not invalidated for nothing.
	ds.AddTriple(tr)
	if ds.Epoch() != 1 {
		t.Errorf("epoch after duplicate AddTriple = %d, want 1 (no-op)", ds.Epoch())
	}
	if ds.Len() != 1 {
		t.Errorf("Len after duplicate = %d, want 1", ds.Len())
	}
	ds.Add("a", "p", "b")
	if ds.Epoch() != 1 {
		t.Errorf("epoch after duplicate Add = %d, want 1 (no-op)", ds.Epoch())
	}
}

func TestAddBatchDelta(t *testing.T) {
	ds := NewDataset()
	a := ds.Add("a", "p", "b")
	var got []WriteDelta
	off := subscribe(ds, func(wd WriteDelta) { got = append(got, wd) })
	c := Triple{ds.Dict.Intern("c"), ds.Dict.Intern("q"), ds.Dict.Intern("d")}
	e := Triple{ds.Dict.Intern("e"), ds.Dict.Intern("q"), ds.Dict.Intern("f")}
	if n := ds.AddBatch([]Triple{a, c, e, c}); n != 2 {
		t.Fatalf("AddBatch inserted %d, want 2 (duplicates filtered)", n)
	}
	if ds.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2 (one bump per batch)", ds.Epoch())
	}
	if len(got) != 1 || len(got[0].Triples) != 2 || got[0].Epoch != 2 {
		t.Fatalf("delta %+v, want one commit with the 2 new triples at epoch 2", got)
	}
	if got[0].Snap.Len() != 3 {
		t.Fatalf("delta snapshot Len %d, want 3", got[0].Snap.Len())
	}
	// An all-duplicate batch commits nothing.
	if n := ds.AddBatch([]Triple{a, c}); n != 0 {
		t.Fatalf("duplicate batch inserted %d, want 0", n)
	}
	if len(got) != 1 || ds.Epoch() != 2 {
		t.Fatalf("duplicate batch committed: %d deltas, epoch %d", len(got), ds.Epoch())
	}
	off()
	ds.Add("g", "q", "h")
	if len(got) != 1 {
		t.Fatal("hook fired after unregister")
	}
}

// TestAddBatchIntoEmptyKeepsBatch pins what a load relies on: into an
// empty dataset AddBatch keeps the batch's array as the dataset's
// storage (no second copy of the triples), drops repeats in place, and
// commits once with a delta that shares that storage; a later batch
// into the now non-empty dataset leaves its slice as it was.
func TestAddBatchIntoEmptyKeepsBatch(t *testing.T) {
	ds := NewDataset()
	var got []WriteDelta
	subscribe(ds, func(wd WriteDelta) { got = append(got, wd) })
	p := ds.Dict.Intern("p")
	a := Triple{ds.Dict.Intern("a"), p, ds.Dict.Intern("b")}
	b := Triple{ds.Dict.Intern("b"), p, ds.Dict.Intern("c")}
	c := Triple{ds.Dict.Intern("c"), p, ds.Dict.Intern("a")}
	batch := []Triple{a, b, a, c, b}
	if n := ds.AddBatch(batch); n != 3 {
		t.Fatalf("AddBatch inserted %d, want 3", n)
	}
	if want := []Triple{a, b, c}; !slices.Equal(ds.Triples, want) || !slices.Equal(ds.Snapshot().Triples(), want) {
		t.Fatalf("dataset holds %v, want %v", ds.Triples, want)
	}
	if &ds.Triples[0] != &batch[0] {
		t.Error("AddBatch into an empty dataset copied the batch")
	}
	if len(got) != 1 || got[0].Epoch != 1 || !slices.Equal(got[0].Triples, ds.Triples) || &got[0].Triples[0] != &batch[0] {
		t.Fatalf("deltas %+v, want one at epoch 1 holding the dataset's own triples", got)
	}
	d := Triple{ds.Dict.Intern("d"), p, ds.Dict.Intern("a")}
	next := []Triple{c, d}
	if n := ds.AddBatch(next); n != 1 || ds.Len() != 4 || !slices.Equal(next, []Triple{c, d}) {
		t.Fatalf("second batch inserted %d (Len %d) and left %v", n, ds.Len(), next)
	}
	if len(got) != 2 || !slices.Equal(got[1].Triples, []Triple{d}) {
		t.Fatalf("second delta %+v, want [d]", got[1:])
	}
}

// TestSnapshotsAreSets pins the invariant the statistics tracker's
// count shortcut relies on: no sequence of Add, AddTriple and AddBatch
// publishes a snapshot that holds a triple twice, and a commit's
// delta holds exactly the triples the snapshot before it lacked.
func TestSnapshotsAreSets(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	isSet := func(ts []Triple) bool {
		seen := make(map[Triple]bool, len(ts))
		for _, tr := range ts {
			if seen[tr] {
				return false
			}
			seen[tr] = true
		}
		return true
	}
	for trial := 0; trial < 20; trial++ {
		ds := NewDataset()
		term := func() string { return fmt.Sprintf("t%d", r.Intn(5)) }
		triple := func() Triple {
			return Triple{ds.Dict.Intern(term()), ds.Dict.Intern(term()), ds.Dict.Intern(term())}
		}
		before := ds.Snapshot()
		subscribe(ds, func(wd WriteDelta) {
			if !isSet(wd.Snap.Triples()) {
				t.Fatalf("trial %d: a commit published a duplicate triple", trial)
			}
			if !isSet(append(append([]Triple(nil), before.Triples()...), wd.Triples...)) ||
				wd.Snap.Len() != before.Len()+len(wd.Triples) {
				t.Fatalf("trial %d: delta of %d triples is not what the commit added to %d", trial, len(wd.Triples), before.Len())
			}
		})
		for op := 0; op < 60; op++ {
			switch r.Intn(3) {
			case 0:
				ds.Add(term(), term(), term())
			case 1:
				ds.AddTriple(triple())
			case 2:
				batch := make([]Triple, r.Intn(6))
				for i := range batch {
					batch[i] = triple()
				}
				if len(batch) > 0 {
					batch = append(batch, batch[r.Intn(len(batch))])
				}
				ds.AddBatch(batch)
			}
			before = ds.Snapshot()
			if !isSet(before.Triples()) {
				t.Fatalf("trial %d op %d: snapshot holds a duplicate triple", trial, op)
			}
		}
	}
}

func TestSnapshotImmutable(t *testing.T) {
	ds := NewDataset()
	ds.Add("a", "p", "b")
	snap := ds.Snapshot()
	if snap.Len() != 1 || snap.Epoch() != 1 {
		t.Fatalf("snapshot len=%d epoch=%d", snap.Len(), snap.Epoch())
	}
	// Later writes must not leak into the pinned snapshot, even though
	// they append to the same backing dataset.
	for i := 0; i < 100; i++ {
		ds.Add("a", "p", fmt.Sprintf("o%d", i))
	}
	if snap.Len() != 1 {
		t.Fatalf("pinned snapshot grew to %d", snap.Len())
	}
	if got := ds.Snapshot().Len(); got != 101 {
		t.Fatalf("fresh snapshot Len %d, want 101", got)
	}
	// The slice is capacity-capped: appending to it cannot scribble on
	// the dataset's tail.
	if c := cap(snap.Triples()); c != 1 {
		t.Fatalf("snapshot cap %d, want 1", c)
	}
}

func TestChangedBetween(t *testing.T) {
	ds := NewDataset()
	ds.Add("a", "p", "b") // epoch 1
	ds.Add("c", "q", "d") // epoch 2
	p, _ := ds.Dict.Lookup("p")
	q, _ := ds.Dict.Lookup("q")
	if cs := ds.ChangedBetween(2, 2); len(cs.Preds) != 0 {
		t.Fatalf("empty span reported changes: %+v", cs)
	}
	cs := ds.ChangedBetween(1, 2)
	if len(cs.Preds) != 1 {
		t.Fatalf("span (1,2] = %+v, want exactly predicate q", cs)
	}
	if _, ok := cs.Preds[q]; !ok {
		t.Fatalf("span (1,2] missed predicate q: %+v", cs)
	}
	if !cs.Touches(map[TermID]struct{}{q: {}}) {
		t.Error("change set must touch artifacts over q")
	}
	if cs.Touches(map[TermID]struct{}{p: {}}) {
		t.Error("change set must not touch artifacts over p only")
	}
	ds.Add("e", "p", "f") // epoch 3
	cs = ds.ChangedBetween(2, 3)
	if _, ok := cs.Preds[p]; !ok || len(cs.Preds) != 1 {
		t.Fatalf("span (2,3] = %+v, want exactly predicate p", cs)
	}
}

// subscribe registers h for every later commit of ds.
func subscribe(ds *Dataset, h func(WriteDelta)) func() {
	return ds.Subscribe(func(*Snapshot) func(WriteDelta) { return h })
}

// TestSubscribeSeesEveryEpoch: build sees the snapshot Snapshot()
// returns at that moment, and every epoch the dataset publishes after
// it — a batch, an Add — reaches the hook once, in epoch
// order, carrying the snapshot Snapshot() returns right after.
func TestSubscribeSeesEveryEpoch(t *testing.T) {
	ds := NewDataset()
	ds.Add("a", "p", "b") // before the hook: epoch 1
	var got []WriteDelta
	ds.Subscribe(func(snap *Snapshot) func(WriteDelta) {
		if snap != ds.Snapshot() || snap.Epoch() != 1 || snap.Len() != len(ds.Triples) {
			t.Errorf("build saw epoch %d with %d triples, want the current snapshot", snap.Epoch(), snap.Len())
		}
		return func(wd WriteDelta) { got = append(got, wd) }
	})
	p := ds.Dict.Intern("p")
	batch := []Triple{{ds.Dict.Intern("c"), p, ds.Dict.Intern("d")}, {ds.Dict.Intern("e"), p, ds.Dict.Intern("f")}}
	steps := []struct {
		name    string
		publish func()
		triples int
	}{
		{"AddBatch", func() { ds.AddBatch(batch) }, 2},
		{"Add", func() { ds.Add("g", "p", "h") }, 1},
	}
	for i, st := range steps {
		st.publish()
		if len(got) != i+1 {
			t.Fatalf("after %s: the hook fired %d times, want %d", st.name, len(got), i+1)
		}
		wd := got[i]
		if want := uint64(i + 2); wd.Epoch != want || ds.Epoch() != want {
			t.Errorf("%s: delta epoch %d, dataset epoch %d, want %d", st.name, wd.Epoch, ds.Epoch(), want)
		}
		if len(wd.Triples) != st.triples {
			t.Errorf("%s: delta holds %d triples, want %d", st.name, len(wd.Triples), st.triples)
		}
		if wd.Snap != ds.Snapshot() || wd.Snap.Epoch() != wd.Epoch {
			t.Errorf("%s: the delta's snapshot is not the one Snapshot() returns after it", st.name)
		}
	}
	// A nil hook registers nothing.
	ds.Subscribe(func(*Snapshot) func(WriteDelta) { return nil })
	ds.Add("i", "p", "j")
	if len(got) != len(steps)+1 {
		t.Errorf("the hook fired %d times, want %d", len(got), len(steps)+1)
	}
}
