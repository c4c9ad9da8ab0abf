package stats

import (
	"sync"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// Tracker maintains per-predicate statistics incrementally under
// ingest: each predicate's cardinality, and how many of its triples
// have each subject and each object. It is seeded with one full scan
// of a snapshot and then folds each committed WriteDelta in
// O(|delta|), so the serving path answers every constant-predicate
// pattern — (?s <p> ?o), (<s> <p> ?o) and (?s <p> <o>) — in O(1)
// instead of scanning the dataset per query.
//
// The two constant-position shapes rely on a snapshot being a set:
// every write path of rdf.Dataset deduplicates, so the triples with
// (s, p) have distinct objects and count(s, p) is both |tp| and
// B(tp, ?o). Patterns the tracker cannot answer (a variable
// predicate, a repeated variable, an all-constant pattern) fall back
// to a snapshot scan in CollectTracked.
type Tracker struct {
	mu    sync.RWMutex
	epoch uint64
	total int64
	preds map[rdf.TermID]*predAgg
}

// predAgg aggregates one predicate p.
type predAgg struct {
	card     int64
	subjects map[rdf.TermID]uint32 // s → triples with (s, p)
	objects  map[rdf.TermID]uint32 // o → triples with (p, o)
}

// NewTracker seeds a tracker with one pass over the snapshot.
func NewTracker(snap *rdf.Snapshot) *Tracker {
	t := &Tracker{epoch: snap.Epoch(), preds: make(map[rdf.TermID]*predAgg)}
	for _, tr := range snap.Triples() {
		t.fold(tr)
	}
	t.total = int64(snap.Len())
	return t
}

func (t *Tracker) fold(tr rdf.Triple) {
	g := t.preds[tr.P]
	if g == nil {
		g = &predAgg{subjects: make(map[rdf.TermID]uint32), objects: make(map[rdf.TermID]uint32)}
		t.preds[tr.P] = g
	}
	g.card++
	g.subjects[tr.S]++
	g.objects[tr.O]++
}

// Apply folds one committed write delta and advances the tracker to
// its epoch. Deltas must be applied in commit order and hold only the
// triples the commit inserted (WriteDelta.Triples). A nil/empty delta
// just advances the epoch.
func (t *Tracker) Apply(delta []rdf.Triple, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range delta {
		t.fold(tr)
	}
	t.total += int64(len(delta))
	if epoch > t.epoch {
		t.epoch = epoch
	}
}

// Epoch returns the epoch the tracker's aggregates reflect.
func (t *Tracker) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// Total returns the tracked triple count.
func (t *Tracker) Total() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.total
}

// CollectTracked computes pattern statistics for q at the snapshot,
// bit for bit what CollectSnapshot computes. Every pattern patternFast
// answers costs O(1); the rest are scanned, and Stats.Scanned counts
// them. The tracker must be exactly at the snapshot's epoch; when it
// is not (a query that pinned the engine's snapshot between the commit
// hook's two applies, or the tracker already ahead of an older pinned
// snapshot), every pattern with known constants is scanned, so the
// statistics always describe the pinned snapshot. Every epoch the
// dataset publishes reaches the tracker through the same hook, so none
// leaves it behind.
func CollectTracked(t *Tracker, snap *rdf.Snapshot, q *sparql.Query) (*Stats, error) {
	if t == nil {
		return CollectSnapshot(snap, q)
	}
	s := &Stats{Patterns: make([]PatternStats, len(q.Patterns)), Epoch: snap.Epoch()}
	t.mu.RLock()
	if t.epoch == snap.Epoch() {
		for i, tp := range q.Patterns {
			s.Patterns[i], _ = t.patternFast(snap.Dict(), tp)
		}
	}
	t.mu.RUnlock()
	// A pattern left unanswered has nil Bindings. The scans run after
	// the lock is released, so they never hold up Apply.
	for i, tp := range q.Patterns {
		if s.Patterns[i].Bindings == nil {
			s.scanPattern(i, snap, tp)
		}
	}
	return s, nil
}

// patternFast answers one pattern from the aggregates; the caller
// holds t.mu. It answers a pattern with a constant the dictionary does
// not hold (card 0, every binding 1), and every constant-predicate
// pattern with at least one variable position and no repeated
// variable:
//
//	(?s <p> ?o): |tp| = card(p), B(?s) = #subjects(p), B(?o) = #objects(p)
//	(<s> <p> ?o): |tp| = B(?o) = count(s, p)
//	(?s <p> <o>): |tp| = B(?s) = count(p, o)
//
// each binding floored at 1, as the scan floors it.
func (t *Tracker) patternFast(dict *rdf.Dict, tp sparql.TriplePattern) (PatternStats, bool) {
	sid, sConst, sKnown := lookup(dict, tp.S)
	pid, pConst, pKnown := lookup(dict, tp.P)
	oid, oConst, oKnown := lookup(dict, tp.O)
	switch {
	case !sKnown || !pKnown || !oKnown:
		return unknownStats(tp), true
	case !pConst || sConst && oConst || !sConst && !oConst && tp.S.Value == tp.O.Value:
		return PatternStats{}, false
	}
	var card, bs, bo int64
	if g := t.preds[pid]; g != nil {
		switch {
		case sConst:
			card = int64(g.subjects[sid])
			bo = card
		case oConst:
			card = int64(g.objects[oid])
			bs = card
		default:
			card, bs, bo = g.card, int64(len(g.subjects)), int64(len(g.objects))
		}
	}
	ps := PatternStats{Card: float64(card), Bindings: make(map[string]float64, 2)}
	if !sConst {
		ps.Bindings[tp.S.Value] = float64(max(bs, 1))
	}
	if !oConst {
		ps.Bindings[tp.O.Value] = float64(max(bo, 1))
	}
	return ps, true
}
