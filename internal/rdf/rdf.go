// Package rdf provides the core RDF data model: dictionary-encoded
// terms, triples, and the directed labeled RDF graph G_R = (V_R, E_R)
// of paper §II-A.
//
// Terms (IRIs, literals and blank nodes) are interned into a Dict, so a
// triple is three integer IDs. Subjects and objects become graph
// vertices; predicates become edge labels. The Dict keeps its own copy
// of every term together with a class byte (its kind, and whether its
// text needs escaping), and resolving an ID takes no lock.
//
// A Dataset is multi-version: every committed write publishes a new
// immutable Snapshot (an append-side delta over a shared backing
// array), and readers pin one Snapshot for the life of a query, so
// ingest never blocks or perturbs the serving path.
package rdf

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// TermID identifies an interned term. IDs are dense, starting at 0.
type TermID uint32

// Triple is a single RDF statement ⟨subject, predicate, object⟩.
type Triple struct {
	S, P, O TermID
}

// Less orders triples lexicographically by (S, P, O).
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// Compare orders triples like Less, as slices.SortFunc and
// slices.BinarySearchFunc expect: negative, zero or positive.
func (t Triple) Compare(u Triple) int {
	switch {
	case t.Less(u):
		return -1
	case u.Less(t):
		return 1
	}
	return 0
}

// Dict interns term strings and assigns dense TermIDs. The zero value
// is ready to use. Reads take no lock: Term, Entry and Len see every
// term whose Intern has returned, so the serving path resolves result
// cells while a writer interns. Intern and Lookup serialize on a
// mutex.
//
// Terms live in fixed-size chunks that never move; Intern fills a
// term's slot and only then publishes the chunk directory and the term
// count, which readers load atomically.
type Dict struct {
	mu    sync.RWMutex // serializes Intern against Lookup
	ids   map[string]TermID
	dir   []*dictChunk // the writer's directory; readers load chunks
	arena []byte       // the unused tail of the block Intern packs into

	chunks atomic.Pointer[[]*dictChunk] // the directory as last published
	n      atomic.Uint32                // terms published; stored after their slots
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits

	// arenaSize is the block Intern packs term text into; a term longer
	// than an eighth of it gets an allocation of its own.
	arenaSize = 64 << 10
)

// dictChunk holds chunkSize consecutive terms and their classes.
type dictChunk struct {
	text  [chunkSize]string
	class [chunkSize]TermClass
}

// TermClass is what Intern recorded about a term: its kind and whether
// it is Plain.
type TermClass uint8

// The kinds of term, as the dictionary tells them from the N-Triples
// lexical form it stores: a leading quote marks a literal, "_:" a blank
// node, everything else is an IRI (without angle brackets).
const (
	IRI TermClass = iota
	Literal
	BlankNode

	// Plain marks a term whose text needs no escaping: an IRI or blank
	// node all printable ASCII with none of " \ < > &, or a literal
	// whose body is, with no @lang or ^^datatype suffix.
	Plain TermClass = 1 << 2
)

// Kind returns the class without the Plain bit: IRI, Literal or
// BlankNode.
func (c TermClass) Kind() TermClass { return c &^ Plain }

// Plain reports whether the term's text needs no escaping.
func (c TermClass) Plain() bool { return c&Plain != 0 }

// plainByte marks the bytes a Plain term may hold.
var plainByte = func() (t [256]bool) {
	for b := ' '; b <= '~'; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return t
}()

// classify returns term's class.
func classify(term string) TermClass {
	kind, body := IRI, term
	switch {
	case strings.HasPrefix(term, `"`):
		if len(term) < 2 || term[len(term)-1] != '"' {
			return Literal
		}
		kind, body = Literal, term[1:len(term)-1]
	case strings.HasPrefix(term, "_:"):
		kind = BlankNode
	}
	for i := 0; i < len(body); i++ {
		if !plainByte[body[i]] {
			return kind
		}
	}
	return kind | Plain
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]TermID)} }

// Intern returns the ID for term, assigning a fresh one if needed. A
// fresh term is copied into the dictionary — packed after the one
// interned before it — so the dictionary never pins the caller's
// string, and classified once.
func (d *Dict) Intern(term string) TermID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]TermID)
	}
	n := d.n.Load()
	id, i := TermID(n), n&(chunkSize-1)
	if i == 0 {
		d.dir = append(d.dir, new(dictChunk))
		dir := d.dir
		d.chunks.Store(&dir)
	}
	text := d.keep(term)
	c := d.dir[n>>chunkBits]
	c.text[i], c.class[i] = text, classify(text)
	d.ids[text] = id
	d.n.Store(n + 1)
	return id
}

// keep returns a copy of term in the dictionary's own memory. Caller
// holds d.mu.
func (d *Dict) keep(term string) string {
	switch {
	case term == "":
		return ""
	case len(term) > arenaSize/8:
		return strings.Clone(term)
	case len(term) > cap(d.arena)-len(d.arena):
		d.arena = make([]byte, 0, arenaSize)
	}
	start := len(d.arena)
	d.arena = append(d.arena, term...)
	return unsafe.String(&d.arena[start], len(term))
}

// Lookup returns the ID for term, if it has been interned.
func (d *Dict) Lookup(term string) (TermID, bool) {
	d.mu.RLock()
	id, ok := d.ids[term]
	d.mu.RUnlock()
	return id, ok
}

// Entry returns the text and class of id. It panics if id was never
// assigned.
func (d *Dict) Entry(id TermID) (string, TermClass) {
	if uint32(id) >= d.n.Load() {
		panic("rdf: term ID was never assigned")
	}
	c := (*d.chunks.Load())[id>>chunkBits]
	return c.text[id&(chunkSize-1)], c.class[id&(chunkSize-1)]
}

// Term returns the string for id. It panics if id was never assigned.
func (d *Dict) Term(id TermID) string {
	text, _ := d.Entry(id)
	return text
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Snapshot is an immutable view of a dataset at one epoch. The triple
// slice is capped at both length and capacity, so writer appends past
// it never become visible; a pinned Snapshot therefore yields
// bit-identical scans regardless of concurrent ingest.
type Snapshot struct {
	dict    *Dict
	triples []Triple
	epoch   uint64
}

// Dict returns the dictionary shared with the dataset. The dictionary
// is append-only and its reads take no lock, so resolving terms
// through an old snapshot is always safe.
func (s *Snapshot) Dict() *Dict { return s.dict }

// Triples returns the immutable triple slice. Callers must not mutate
// it.
func (s *Snapshot) Triples() []Triple { return s.triples }

// Epoch returns the epoch at which this snapshot was published.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return len(s.triples) }

// WriteDelta describes one published epoch: the triples the commit
// actually inserted (duplicates are filtered out before commit), the
// epoch, and the snapshot it published.
type WriteDelta struct {
	Triples []Triple
	Epoch   uint64
	Snap    *Snapshot
}

// ChangeSet summarizes which predicates changed across a span of
// epochs.
type ChangeSet struct {
	Preds map[TermID]struct{}
}

// Touches reports whether the change set may affect artifacts derived
// from the given predicates.
func (c ChangeSet) Touches(preds map[TermID]struct{}) bool {
	for p := range c.Preds {
		if _, ok := preds[p]; ok {
			return true
		}
	}
	return false
}

// Dataset is a set of triples together with the dictionary that
// encodes them.
//
// A Dataset carries a monotonically increasing epoch, bumped by every
// committed mutation. Consumers that cache anything derived from the
// triples — collected statistics, optimized plans — record the epoch
// they observed and use ChangedBetween to decide whether (and how
// much of) their artifact is stale.
//
// Writes go through Add/AddTriple/AddBatch, which deduplicate at
// insert (re-adding a present triple is a no-op: no epoch bump, no
// invalidation), publish a fresh immutable Snapshot, and fire the
// hooks registered with Subscribe.
// Readers call Snapshot() once and use it for the whole query.
// Code that appends to Triples directly bypasses all of this; it is
// only legal before the dataset starts serving.
type Dataset struct {
	Dict    *Dict
	Triples []Triple

	epoch atomic.Uint64
	snap  atomic.Pointer[Snapshot]

	mu    sync.Mutex          // serializes writers
	index map[Triple]struct{} // lazy membership set, built on first write

	modMu       sync.RWMutex      // guards predLastMod
	predLastMod map[TermID]uint64 // predicate → epoch of its last change

	hooks  map[int]func(WriteDelta)
	hookID int
}

// NewDataset returns an empty dataset with a fresh dictionary.
func NewDataset() *Dataset { return &Dataset{Dict: NewDict()} }

// Add interns the three terms and inserts the triple. Inserting a
// triple that is already present is a no-op: the epoch does not move
// and no snapshot is published.
func (ds *Dataset) Add(s, p, o string) Triple {
	t := Triple{ds.Dict.Intern(s), ds.Dict.Intern(p), ds.Dict.Intern(o)}
	ds.AddTriple(t)
	return t
}

// AddTriple inserts an already-encoded triple. Duplicates are no-ops.
func (ds *Dataset) AddTriple(t Triple) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !ds.insertLocked(t) {
		return
	}
	ds.publishLocked([]Triple{t})
}

// AddBatch inserts a batch of triples under one commit: one epoch
// bump, one snapshot, one commit delta carrying exactly the triples
// that were new, in batch order. Returns the number inserted. Into an
// empty dataset AddBatch keeps ts's backing array as the dataset's own
// storage, dropping repeats in place, so a load holds one copy of its
// triples; the caller must not use ts afterwards.
func (ds *Dataset) AddBatch(ts []Triple) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.index == nil {
		ds.buildIndexLocked(len(ts))
	}
	if len(ds.Triples) == 0 {
		ds.Triples = ts[:0]
	}
	old := len(ds.Triples)
	for _, t := range ts {
		ds.insertLocked(t)
	}
	if len(ds.Triples) == old {
		return 0
	}
	ds.publishLocked(ds.Triples[old:len(ds.Triples):len(ds.Triples)])
	return len(ds.Triples) - old
}

// buildIndexLocked builds the membership index over Triples, sized for
// extra more. Caller holds ds.mu.
func (ds *Dataset) buildIndexLocked(extra int) {
	ds.index = make(map[Triple]struct{}, len(ds.Triples)+extra)
	for _, u := range ds.Triples {
		ds.index[u] = struct{}{}
	}
}

// insertLocked appends t unless already present. Caller holds ds.mu.
func (ds *Dataset) insertLocked(t Triple) bool {
	if ds.index == nil {
		ds.buildIndexLocked(1)
	}
	if _, dup := ds.index[t]; dup {
		return false
	}
	ds.index[t] = struct{}{}
	ds.Triples = append(ds.Triples, t)
	return true
}

// publishLocked publishes the next epoch: it records what changed —
// the predicates of delta — stores the new snapshot, and fires the
// commit hooks (synchronously, still under ds.mu, so hooks observe
// every epoch in order). Every epoch the dataset publishes goes through
// here. Caller holds ds.mu.
func (ds *Dataset) publishLocked(delta []Triple) {
	epoch := ds.epoch.Add(1)
	ds.modMu.Lock()
	if ds.predLastMod == nil {
		ds.predLastMod = make(map[TermID]uint64)
	}
	for _, t := range delta {
		ds.predLastMod[t.P] = epoch
	}
	ds.modMu.Unlock()
	snap := &Snapshot{dict: ds.Dict, triples: ds.Triples[:len(ds.Triples):len(ds.Triples)], epoch: epoch}
	ds.snap.Store(snap)
	if len(ds.hooks) > 0 {
		wd := WriteDelta{Triples: delta, Epoch: epoch, Snap: snap}
		for _, h := range ds.hooks {
			h(wd)
		}
	}
}

// Snapshot returns the most recently published immutable snapshot. For
// a dataset that has never committed a write through the mutation
// methods (e.g. one assembled by hand before serving), it returns a
// view of the current state.
func (ds *Dataset) Snapshot() *Snapshot {
	if s := ds.snap.Load(); s != nil {
		return s
	}
	return &Snapshot{dict: ds.Dict, triples: ds.Triples[:len(ds.Triples):len(ds.Triples)], epoch: ds.epoch.Load()}
}

// Subscribe attaches a consumer to the dataset's commits with no gap
// between the state it starts from and the first epoch it is told
// about. Holding the writer lock, it calls build with the current
// snapshot — for build's duration Triples holds exactly that
// snapshot's triples — and registers the hook build returns, which
// then fires for every later epoch the dataset publishes, in epoch
// order, with the writer lock held. Neither build nor the hook may call
// a mutation method. A nil hook registers nothing. The returned
// function unregisters the hook.
func (ds *Dataset) Subscribe(build func(*Snapshot) func(WriteDelta)) (unsubscribe func()) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	h := build(ds.Snapshot())
	if h == nil {
		return func() {}
	}
	if ds.hooks == nil {
		ds.hooks = make(map[int]func(WriteDelta))
	}
	id := ds.hookID
	ds.hookID++
	ds.hooks[id] = h
	return func() {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		delete(ds.hooks, id)
	}
}

// Epoch returns the dataset's mutation counter. Two calls returning
// the same value bracket a span with no committed mutations, so
// statistics or plans derived in between are still valid.
func (ds *Dataset) Epoch() uint64 { return ds.epoch.Load() }

// ChangedBetween summarizes what changed in the epoch span (from, to].
// A consumer holding an artifact collected at epoch `from` calls this
// when it observes the dataset at epoch `to`; a result with no
// predicates means the artifact is still exactly valid.
func (ds *Dataset) ChangedBetween(from, to uint64) ChangeSet {
	if to <= from {
		return ChangeSet{}
	}
	ds.modMu.RLock()
	defer ds.modMu.RUnlock()
	var preds map[TermID]struct{}
	for p, e := range ds.predLastMod {
		if e > from && e <= to {
			if preds == nil {
				preds = make(map[TermID]struct{})
			}
			preds[p] = struct{}{}
		}
	}
	return ChangeSet{Preds: preds}
}

// Len returns the number of triples.
func (ds *Dataset) Len() int {
	if s := ds.snap.Load(); s != nil {
		return len(s.triples)
	}
	return len(ds.Triples)
}

// String renders a triple using the dataset's dictionary, for debugging.
func (ds *Dataset) String(t Triple) string {
	return fmt.Sprintf("<%s> <%s> <%s>", ds.Dict.Term(t.S), ds.Dict.Term(t.P), ds.Dict.Term(t.O))
}

// Edge is one outgoing or incoming labeled edge of a graph vertex.
type Edge struct {
	Pred TermID // edge label (predicate)
	To   TermID // neighbor vertex (object for Out, subject for In)
}

// Graph is the directed labeled RDF graph view of a set of triples: for
// every vertex (term appearing as a subject or object) its outgoing and
// incoming labeled edges, in compressed adjacency form over the dense
// TermIDs. Each vertex's edges lie contiguously in one shared array per
// direction, in the order of the triples the graph was built from, and
// an offset array indexed by TermID bounds them.
type Graph struct {
	outStart, inStart []uint32 // v's edges are out[outStart[v]:outStart[v+1]]
	out, in           []Edge
	vertices          int
}

// NewGraph builds the graph view of the given triples: it counts every
// vertex's degrees, turns them into offsets, and fills the edges in
// triple order.
func NewGraph(triples []Triple) *Graph {
	span := 0
	for _, t := range triples {
		span = max(span, int(t.S)+1, int(t.O)+1)
	}
	g := &Graph{
		outStart: make([]uint32, span+1), inStart: make([]uint32, span+1),
		out: make([]Edge, len(triples)), in: make([]Edge, len(triples)),
	}
	for _, t := range triples {
		g.outStart[t.S]++
		g.inStart[t.O]++
	}
	// Inclusive prefix sums leave outStart[v] at the end of v's range;
	// filling decrements it back to the start. Filling backwards keeps
	// each vertex's edges in triple order.
	var outSum, inSum uint32
	for v := 0; v < span; v++ {
		if g.outStart[v] > 0 || g.inStart[v] > 0 {
			g.vertices++
		}
		outSum += g.outStart[v]
		inSum += g.inStart[v]
		g.outStart[v], g.inStart[v] = outSum, inSum
	}
	g.outStart[span], g.inStart[span] = outSum, inSum
	for i := len(triples) - 1; i >= 0; i-- {
		t := triples[i]
		g.outStart[t.S]--
		g.out[g.outStart[t.S]] = Edge{Pred: t.P, To: t.O}
		g.inStart[t.O]--
		g.in[g.inStart[t.O]] = Edge{Pred: t.P, To: t.S}
	}
	return g
}

// Out returns the outgoing edges of v (v as subject), in triple order.
func (g *Graph) Out(v TermID) []Edge {
	if int(v) >= g.Span() {
		return nil
	}
	return g.out[g.outStart[v]:g.outStart[v+1]:g.outStart[v+1]]
}

// In returns the incoming edges of v (v as object), in triple order.
func (g *Graph) In(v TermID) []Edge {
	if int(v) >= g.Span() {
		return nil
	}
	return g.in[g.inStart[v]:g.inStart[v+1]:g.inStart[v+1]]
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return len(g.out) }

// Span returns one past the largest vertex ID: every vertex is below
// it, so a slice of that length indexes any vertex.
func (g *Graph) Span() int { return len(g.outStart) - 1 }

// Vertices calls f once for every vertex of the graph (any term that
// appears as a subject or object), in ascending TermID order, so that
// a placement seeded by vertex order repeats run to run. Iteration
// stops if f returns false.
func (g *Graph) Vertices(f func(v TermID) bool) {
	for v := range g.Span() {
		if g.outStart[v] == g.outStart[v+1] && g.inStart[v] == g.inStart[v+1] {
			continue
		}
		if !f(TermID(v)) {
			return
		}
	}
}

// NumVertices returns the number of distinct vertices.
func (g *Graph) NumVertices() int { return g.vertices }
