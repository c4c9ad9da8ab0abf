// Package stats holds per-triple-pattern statistics — the cardinality
// |tp| and the distinct-binding counts B(tp, v) — and implements the
// join cardinality estimation of the paper's appendix B (Eq. 10–11):
//
//	|tp1 ⋈ tp2| = |tp1|·|tp2| / ∏_{v ∈ shared} max B(tp_i, v)
//
// extended to multi-pattern subqueries by left-folding in pattern
// index order (Eq. 11). An Estimator memoizes per-subquery results, as
// the plan enumerator asks for the same subqueries many times.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// PatternStats describes the bindings of one triple pattern.
type PatternStats struct {
	// Card is the number of triples matching the pattern.
	Card float64
	// Bindings maps each variable of the pattern to its number of
	// distinct bindings (B(tp, v) of appendix B).
	Bindings map[string]float64
}

// Stats aligns one PatternStats with each pattern of a query.
type Stats struct {
	Patterns []PatternStats
	// Epoch is the epoch of the snapshot the statistics describe.
	Epoch uint64
	// Scanned is the number of patterns whose statistics took a pass
	// over the snapshot's triples; the others were answered by a
	// Tracker or by a constant the dictionary does not hold.
	Scanned int
}

// Collect scans the dataset once per pattern and computes exact
// statistics: match counts and distinct bindings per variable. It
// pins the dataset's current snapshot; use CollectSnapshot directly
// when the caller already holds one.
func Collect(ds *rdf.Dataset, q *sparql.Query) (*Stats, error) {
	return CollectSnapshot(ds.Snapshot(), q)
}

// CollectSnapshot computes exact statistics over one pinned immutable
// snapshot, so collection is consistent (and race-free) under
// concurrent ingest. It is the reference CollectTracked must equal.
func CollectSnapshot(snap *rdf.Snapshot, q *sparql.Query) (*Stats, error) {
	s := &Stats{Patterns: make([]PatternStats, len(q.Patterns)), Epoch: snap.Epoch()}
	for i, tp := range q.Patterns {
		s.scanPattern(i, snap, tp)
	}
	return s, nil
}

// scanPattern sets pattern i's statistics from a pass over the
// snapshot's triples, counting the pass in Scanned.
func (s *Stats) scanPattern(i int, snap *rdf.Snapshot, tp sparql.TriplePattern) {
	ps, scanned := collectPattern(snap.Dict(), snap.Triples(), tp)
	s.Patterns[i] = ps
	if scanned {
		s.Scanned++
	}
}

// lookup resolves one pattern term: a variable is not constant; a
// constant is known when the dictionary holds it.
func lookup(dict *rdf.Dict, t sparql.Term) (id rdf.TermID, isConst, known bool) {
	if t.IsVar() {
		return 0, false, true
	}
	id, known = dict.Lookup(t.Value)
	return id, true, known
}

// unknownStats is the statistics of a pattern with a constant the
// dictionary does not hold: zero matches, every binding at the floor 1.
func unknownStats(tp sparql.TriplePattern) PatternStats {
	ps := PatternStats{Bindings: map[string]float64{}}
	for _, v := range tp.Vars() {
		ps.Bindings[v] = 1
	}
	return ps
}

// collectPattern computes one pattern's statistics by scanning
// triples; scanned is false when an unknown constant made the scan
// unnecessary.
func collectPattern(dict *rdf.Dict, triples []rdf.Triple, tp sparql.TriplePattern) (ps PatternStats, scanned bool) {
	sid, sConst, sKnown := lookup(dict, tp.S)
	pid, pConst, pKnown := lookup(dict, tp.P)
	oid, oConst, oKnown := lookup(dict, tp.O)
	if !sKnown || !pKnown || !oKnown {
		return unknownStats(tp), false
	}
	ps.Bindings = map[string]float64{}
	distinct := map[string]map[rdf.TermID]struct{}{}
	for _, v := range tp.Vars() {
		distinct[v] = map[rdf.TermID]struct{}{}
	}
	note := func(t sparql.Term, id rdf.TermID) {
		if t.IsVar() {
			distinct[t.Value][id] = struct{}{}
		}
	}
	for _, tr := range triples {
		if sConst && tr.S != sid {
			continue
		}
		if pConst && tr.P != pid {
			continue
		}
		if oConst && tr.O != oid {
			continue
		}
		ps.Card++
		note(tp.S, tr.S)
		note(tp.P, tr.P)
		note(tp.O, tr.O)
	}
	for v, set := range distinct {
		b := float64(len(set))
		if b < 1 {
			b = 1
		}
		ps.Bindings[v] = b
	}
	return ps, true
}

// Estimator computes and memoizes subquery cardinalities for one
// query under one Stats. It indexes the query's variables once, so an
// estimate is a card plus a dense vector of binding counts, and it
// folds every set from its memoized prefix: one Eq. 10 join per new
// set. The fold runs in pattern-index order and multiplies the
// shared-variable denominator in variable-index order, so an estimate
// is a bit-reproducible function of the set.
//
// It is safe for concurrent use: the parallel plan enumerator calls it
// from every worker. Two workers missing on the same set may both
// compute it; they store bit-identical values, so which store wins is
// unobservable.
type Estimator struct {
	// vars maps a variable name to its index in every binding vector.
	vars map[string]int
	// base[i] is pattern i's estimate, its bindings floored at 1.
	base []entry
	mu   sync.RWMutex
	memo map[bitset.TPSet]entry
}

// entry is one estimate: the cardinality and B(SQ, v) for every
// indexed variable v, 0 when v does not occur in SQ. A present
// variable's count is always ≥ 1.
type entry struct {
	card     float64
	bindings []float64
}

// NewEstimator returns an estimator for q with the given statistics.
// It returns an error if stats does not cover every pattern of q.
func NewEstimator(q *sparql.Query, s *Stats) (*Estimator, error) {
	if len(s.Patterns) != len(q.Patterns) {
		return nil, fmt.Errorf("stats: have %d pattern stats for %d patterns", len(s.Patterns), len(q.Patterns))
	}
	e := &Estimator{vars: map[string]int{}, memo: make(map[bitset.TPSet]entry)}
	// Index every variable a pattern has a count for: pattern by
	// pattern, each pattern's names sorted.
	for _, ps := range s.Patterns {
		names := make([]string, 0, len(ps.Bindings))
		for v := range ps.Bindings {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			if _, ok := e.vars[v]; !ok {
				e.vars[v] = len(e.vars)
			}
		}
	}
	e.base = make([]entry, len(s.Patterns))
	for i, ps := range s.Patterns {
		b := make([]float64, len(e.vars))
		for v, n := range ps.Bindings {
			// A count below 1 joins exactly as 1 does (Eq. 10 floors
			// the denominator and capBinding the result), and 0 is
			// the vector's "absent".
			b[e.vars[v]] = math.Max(n, 1)
		}
		e.base[i] = entry{card: ps.Card, bindings: b}
	}
	return e, nil
}

// Cardinality estimates |SQ| for the subquery encoded by set. Folding
// is performed in pattern-index order, so the estimate is a
// well-defined function of the set. Disconnected sets are estimated as
// cross products (the enumerators never request them, but baselines
// like DP-Bushy cost such plans before discarding them).
func (e *Estimator) Cardinality(set bitset.TPSet) float64 {
	return e.resolve(set).card
}

// Bindings estimates B(SQ, v), the distinct bindings of variable v in
// the result of the subquery; 1 when v does not occur in it.
func (e *Estimator) Bindings(set bitset.TPSet, v string) float64 {
	i, ok := e.vars[v]
	if !ok {
		return 1
	}
	if b := e.resolve(set).bindings; b != nil && b[i] > 0 {
		return b[i]
	}
	return 1
}

// resolve returns the estimate of set: the left fold of Eq. 11 in
// pattern-index order, taken as join(resolve(set∖{max}), base(max)) so
// that every prefix is folded once and then reused.
func (e *Estimator) resolve(set bitset.TPSet) entry {
	switch set.Len() {
	case 0:
		return entry{card: 1}
	case 1:
		return e.base[set.Min()]
	}
	e.mu.RLock()
	got, ok := e.memo[set]
	e.mu.RUnlock()
	if ok {
		return got
	}
	last := bits.Len64(uint64(set)) - 1
	cur := e.join(e.resolve(set.Remove(last)), e.base[last])
	e.mu.Lock()
	e.memo[set] = cur
	e.mu.Unlock()
	return cur
}

// join applies Eq. 10, generalized to intermediate results: the
// binding count of a shared variable after the join is the smaller of
// the two sides'; a variable present on one side only keeps its count,
// capped by the output cardinality. A fold with no shared variable
// degrades to the cross product l.card·r.card.
func (e *Estimator) join(l, r entry) entry {
	denom := 1.0
	for v, lb := range l.bindings {
		if rb := r.bindings[v]; lb > 0 && rb > 0 {
			denom *= math.Max(lb, rb) // both ≥ 1
		}
	}
	card := l.card * r.card / denom
	out := entry{card: card, bindings: make([]float64, len(l.bindings))}
	for v, lb := range l.bindings {
		b := lb
		if rb := r.bindings[v]; b == 0 || (rb > 0 && rb < b) {
			b = rb
		}
		if b > 0 {
			out.bindings[v] = capBinding(b, card)
		}
	}
	return out
}

func capBinding(b, card float64) float64 {
	if card >= 1 && b > card {
		b = card
	}
	if b < 1 {
		b = 1
	}
	return b
}
