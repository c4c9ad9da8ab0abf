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
	"slices"
	"sort"
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
// actually inserted (duplicates are filtered out before commit; none
// for an epoch-only bump), the epoch, and the snapshot it published.
type WriteDelta struct {
	Triples []Triple
	Epoch   uint64
	Snap    *Snapshot
}

// ChangeSet summarizes which predicates changed across a span of
// epochs. All reports a structural change that cannot be attributed to
// specific predicates (a placement migration, a Dedup reorder);
// consumers must treat it as touching everything.
type ChangeSet struct {
	All   bool
	Preds map[TermID]struct{}
}

// Empty reports whether the span contained no changes at all.
func (c ChangeSet) Empty() bool { return !c.All && len(c.Preds) == 0 }

// Touches reports whether the change set may affect artifacts derived
// from the given predicates. wildcard marks an artifact whose
// predicate set is unknown (e.g. a query with a variable predicate).
func (c ChangeSet) Touches(preds map[TermID]struct{}, wildcard bool) bool {
	if c.Empty() {
		return false
	}
	if c.All || wildcard {
		return true
	}
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
// invalidation), publish a fresh immutable Snapshot, and fire OnCommit
// hooks; BumpEpochPreds and Dedup publish through the same path.
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

	modMu       sync.RWMutex      // guards predLastMod and wildcard
	predLastMod map[TermID]uint64 // predicate → epoch of its last change
	wildcard    uint64            // epoch of the last unattributable change

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
	ds.publishLocked([]Triple{t}, nil, false)
}

// AddBatch inserts a batch of triples under one commit: one epoch
// bump, one snapshot, one OnCommit delta carrying exactly the triples
// that were new. Returns the number inserted.
func (ds *Dataset) AddBatch(ts []Triple) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var delta []Triple
	for _, t := range ts {
		if ds.insertLocked(t) {
			delta = append(delta, t)
		}
	}
	if len(delta) == 0 {
		return 0
	}
	ds.publishLocked(delta, nil, false)
	return len(delta)
}

// insertLocked appends t unless already present. Caller holds ds.mu.
func (ds *Dataset) insertLocked(t Triple) bool {
	if ds.index == nil {
		ds.index = make(map[Triple]struct{}, len(ds.Triples)*2)
		for _, u := range ds.Triples {
			ds.index[u] = struct{}{}
		}
	}
	if _, dup := ds.index[t]; dup {
		return false
	}
	ds.index[t] = struct{}{}
	ds.Triples = append(ds.Triples, t)
	return true
}

// publishLocked publishes the next epoch: it records what changed —
// the predicates of delta and preds, or, with all, an unattributable
// change — stores the new snapshot, and fires the commit hooks
// (synchronously, still under ds.mu, so hooks observe every epoch in
// order). Every epoch the dataset publishes goes through here. Caller
// holds ds.mu.
func (ds *Dataset) publishLocked(delta []Triple, preds []TermID, all bool) uint64 {
	epoch := ds.epoch.Add(1)
	ds.modMu.Lock()
	if ds.predLastMod == nil {
		ds.predLastMod = make(map[TermID]uint64)
	}
	for _, t := range delta {
		ds.predLastMod[t.P] = epoch
	}
	for _, p := range preds {
		ds.predLastMod[p] = epoch
	}
	if all {
		ds.wildcard = epoch
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
	return epoch
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

// OnCommit registers a hook fired for every epoch the dataset
// publishes — writes, epoch-only bumps and Dedup — in epoch order,
// with the dataset's writer lock held (hooks must not call back into
// mutation methods). The returned function unregisters the hook.
func (ds *Dataset) OnCommit(h func(WriteDelta)) func() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
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

// BumpEpochPreds advances the epoch without changing the triples,
// attributed to the given predicates, so cached artifacts over
// disjoint predicate sets survive — the invalidation hook for
// consumers whose artifacts depend on more than the triple set (plans
// costed under a data placement that a migration just changed). The
// commit hooks see the bump as a WriteDelta with no Triples. Safe to
// call concurrently with readers.
func (ds *Dataset) BumpEpochPreds(preds ...TermID) uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.publishLocked(nil, preds, false)
}

// ChangedBetween summarizes what changed in the epoch span (from, to].
// A consumer holding an artifact collected at epoch `from` calls this
// when it observes the dataset at epoch `to`; an Empty result means
// the artifact is still exactly valid.
func (ds *Dataset) ChangedBetween(from, to uint64) ChangeSet {
	if to <= from {
		return ChangeSet{}
	}
	ds.modMu.RLock()
	defer ds.modMu.RUnlock()
	if ds.wildcard > from && ds.wildcard <= to {
		return ChangeSet{All: true}
	}
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

// Dedup sorts the triples and removes exact duplicates. The sorted set
// is built copy-on-write so previously published snapshots keep their
// rows; the reorder is recorded as an unattributable change and
// reaches the commit hooks with no Triples. Duplicates only arise from
// appending to Triples directly, which is legal only before serving.
func (ds *Dataset) Dedup() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	sorted := make([]Triple, len(ds.Triples))
	copy(sorted, ds.Triples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	out := sorted[:0]
	for i, t := range sorted {
		if i == 0 || t != sorted[i-1] {
			out = append(out, t)
		}
	}
	ds.Triples = out
	if ds.index != nil {
		ds.index = make(map[Triple]struct{}, len(out)*2)
		for _, t := range out {
			ds.index[t] = struct{}{}
		}
	}
	ds.publishLocked(nil, nil, true)
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

// Graph is the directed labeled RDF graph view of a dataset: for every
// vertex (term appearing as a subject or object) it records the
// outgoing and incoming labeled edges.
type Graph struct {
	out map[TermID][]Edge
	in  map[TermID][]Edge
	n   int // triple count
}

// NewGraph builds the graph view of the given triples.
func NewGraph(triples []Triple) *Graph {
	g := &Graph{out: make(map[TermID][]Edge), in: make(map[TermID][]Edge)}
	for _, t := range triples {
		g.Add(t)
	}
	return g
}

// Add inserts one triple into the graph.
func (g *Graph) Add(t Triple) {
	g.out[t.S] = append(g.out[t.S], Edge{Pred: t.P, To: t.O})
	g.in[t.O] = append(g.in[t.O], Edge{Pred: t.P, To: t.S})
	g.n++
}

// Out returns the outgoing edges of v (v as subject).
func (g *Graph) Out(v TermID) []Edge { return g.out[v] }

// In returns the incoming edges of v (v as object).
func (g *Graph) In(v TermID) []Edge { return g.in[v] }

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return g.n }

// Vertices calls f once for every vertex of the graph (any term that
// appears as a subject or object), in ascending TermID order, so that
// a placement seeded by vertex order repeats run to run. Iteration
// stops if f returns false.
func (g *Graph) Vertices(f func(v TermID) bool) {
	vs := make([]TermID, 0, g.NumVertices())
	for v := range g.out {
		vs = append(vs, v)
	}
	for v := range g.in {
		if _, ok := g.out[v]; !ok {
			vs = append(vs, v)
		}
	}
	slices.Sort(vs)
	for _, v := range vs {
		if !f(v) {
			return
		}
	}
}

// NumVertices returns the number of distinct vertices.
func (g *Graph) NumVertices() int {
	n := len(g.out)
	for v := range g.in {
		if _, ok := g.out[v]; !ok {
			n++
		}
	}
	return n
}
