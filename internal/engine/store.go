package engine

import (
	"sort"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// store is one node's local triple fragment with hash indexes on each
// position, standing in for the per-node RDF-3X instance of the
// paper's prototype.
type store struct {
	triples []rdf.Triple
	byS     map[rdf.TermID][]int32
	byP     map[rdf.TermID][]int32
	byO     map[rdf.TermID][]int32
}

func newStore(triples []rdf.Triple) *store {
	s := &store{
		triples: triples,
		byS:     make(map[rdf.TermID][]int32),
		byP:     make(map[rdf.TermID][]int32),
		byO:     make(map[rdf.TermID][]int32),
	}
	for i, t := range triples {
		s.byS[t.S] = append(s.byS[t.S], int32(i))
		s.byP[t.P] = append(s.byP[t.P], int32(i))
		s.byO[t.O] = append(s.byO[t.O], int32(i))
	}
	return s
}

// boundPattern is a triple pattern with constants resolved to IDs.
type boundPattern struct {
	vars                   []string // output schema
	sConst, pConst, oConst bool
	s, p, o                rdf.TermID
	sVar, pVar, oVar       int // column index for each variable position, -1 if constant
	unknown                bool
}

// bindPattern resolves constants against the dictionary. A constant
// missing from the dictionary matches nothing (unknown=true).
func bindPattern(dict *rdf.Dict, tp sparql.TriplePattern) boundPattern {
	bp := boundPattern{sVar: -1, pVar: -1, oVar: -1}
	col := func(name string) int {
		for i, v := range bp.vars {
			if v == name {
				return i
			}
		}
		bp.vars = append(bp.vars, name)
		return len(bp.vars) - 1
	}
	resolve := func(t sparql.Term) (rdf.TermID, bool) {
		id, ok := dict.Lookup(t.Value)
		if !ok {
			bp.unknown = true
		}
		return id, true
	}
	if tp.S.IsVar() {
		bp.sVar = col(tp.S.Value)
	} else {
		bp.s, bp.sConst = resolve(tp.S)
	}
	if tp.P.IsVar() {
		bp.pVar = col(tp.P.Value)
	} else {
		bp.p, bp.pConst = resolve(tp.P)
	}
	if tp.O.IsVar() {
		bp.oVar = col(tp.O.Value)
	} else {
		bp.o, bp.oConst = resolve(tp.O)
	}
	return bp
}

// alignKeep is the aligned scan's destination filter: a row survives
// only on the node the parent's repartition scatter would route it to
// (row[col] % n == node). col < 0 keeps every row.
type alignKeep struct{ col, n, node int }

var keepAll = alignKeep{col: -1}

// match scans the store for the pattern, using the most selective
// available index. Matching rows are appended into the relation's
// arena — one allocation for the whole scan, not one per row. It is
// the only loop over candidate postings; every read the engine
// performs is a parameterization of it. A matched row must clear two
// optional gates, in this order: keep, then live (nil = every copy is
// live) — the failover coverage check, asked for the row's triple when
// this store stands in for a dead node's placement manifest. scanned
// is the number of postings touched; missing counts the kept rows live
// rejects (rows another node keeps anyway never demand a replica). bp
// is shared read-only by the concurrent per-node reads of one scan.
func (s *store) match(bp *boundPattern, keep alignKeep, live func(rdf.Triple) bool) (rel *Relation, scanned int64, missing int) {
	if bp.unknown {
		return &Relation{Vars: bp.vars}, 0, 0
	}
	candidates := s.candidates(bp)
	rel = newRelation(bp.vars, len(candidates))
	var row [3]rdf.TermID // a triple pattern binds at most 3 variables
	for _, i := range candidates {
		t := s.triples[i]
		if bp.sConst && t.S != bp.s {
			continue
		}
		if bp.pConst && t.P != bp.p {
			continue
		}
		if bp.oConst && t.O != bp.o {
			continue
		}
		if !fillRow(row[:len(bp.vars)], bp, t) {
			continue
		}
		if keep.col >= 0 && int(uint64(row[keep.col])%uint64(keep.n)) != keep.node {
			continue
		}
		if live != nil && !live(t) {
			missing++
			continue
		}
		rel.appendCopy(row[:len(bp.vars)])
	}
	return rel, int64(len(candidates)), missing
}

// has reports whether the store holds t, probing the shorter of its
// subject and object posting lists.
func (s *store) has(t rdf.Triple) bool {
	list := s.byS[t.S]
	if o := s.byO[t.O]; len(o) < len(list) {
		list = o
	}
	for _, i := range list {
		if s.triples[i] == t {
			return true
		}
	}
	return false
}

// fillRow writes the variable positions of t into row; a repeated
// variable (e.g. ?x <p> ?x) must bind equal values. It reports whether
// the triple is a match.
func fillRow(row []rdf.TermID, bp *boundPattern, t rdf.Triple) bool {
	var filled [3]bool
	put := func(c int, v rdf.TermID) bool {
		if c < 0 {
			return true
		}
		if filled[c] {
			return row[c] == v
		}
		filled[c] = true
		row[c] = v
		return true
	}
	return put(bp.sVar, t.S) && put(bp.pVar, t.P) && put(bp.oVar, t.O)
}

// candidates picks the smallest applicable index posting list.
func (s *store) candidates(bp *boundPattern) []int32 {
	var best []int32
	have := false
	consider := func(list []int32, applicable bool) {
		if !applicable {
			return
		}
		if !have || len(list) < len(best) {
			best, have = list, true
		}
	}
	consider(s.byS[bp.s], bp.sConst)
	consider(s.byP[bp.p], bp.pConst)
	consider(s.byO[bp.o], bp.oConst)
	if have {
		return best
	}
	all := make([]int32, len(s.triples))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// read is the engine's one per-node fragment read: the rows of bp
// visible at node under this snapshot, from the node's base fragment
// and — on an aligned read only — its migration overlay. (The third
// part of the fragment view, the broadcast delta, is node-independent;
// readDelta matches it once per operator.)
//
// alignCol >= 0 makes the read aligned: each row is kept only on the
// node the parent's repartition scatter would route it to. Migrated
// copies live only in the overlay, invisible to normal reads; an
// aligned read must see them — they are exactly the copies the
// migration placed on this node so the shuffle can be skipped. No
// dedup is needed, unlike the scatter path: base, overlay and delta
// are pairwise disjoint per node and each internally deduplicated (the
// overlay is built net of the base and the delta, the delta net of the
// whole dataset), and every copy of a triple shares one align node, so
// each matching row appears exactly once globally — already on its
// scatter destination.
//
// A non-nil dead set (which then contains node) makes the read a
// failover read: node's stores are walked as the placement manifest of
// what the node held, and each kept triple must have a copy on a live
// node's base fragment or overlay, answered by those replicas' own
// indexes. Delta triples never appear in base fragments or overlays
// and are replicated everywhere, so they need no check. With missing
// == 0 the relation is bit-identical to the healthy node's read.
// scanned is the postings touched on the node's own stores.
func (s *Snap) read(node int, bp *boundPattern, alignCol int, dead []int) (rel *Relation, scanned int64, missing int) {
	keep := alignKeep{col: alignCol, n: len(s.stores), node: node}
	var live func(rdf.Triple) bool
	if dead != nil {
		live = s.liveCopy(dead)
	}
	rel, scanned, missing = s.stores[node].match(bp, keep, live)
	if ov := s.overlay(node); ov != nil && alignCol >= 0 {
		// The overlay's copies need live homes too (their base source
		// could be on another dead node). Kept rows are copied into the
		// base relation's arena so the caller's one charge covers them.
		ovRel, ovScanned, ovMissing := ov.match(bp, keep, live)
		for _, row := range ovRel.Rows {
			rel.appendCopy(row)
		}
		scanned += ovScanned
		missing += ovMissing
	}
	return rel, scanned, missing
}

// liveCopy returns the failover coverage check for a dead set (sorted
// ascending): whether a triple has a copy on some live node's base
// fragment or overlay. Kept out of read so the healthy read's stack
// frame stays small — every scan runs one fresh goroutine per node,
// and a deeper frame chain costs each of them a stack growth.
func (s *Snap) liveCopy(dead []int) func(rdf.Triple) bool {
	var replicas []*store
	for n, st := range s.stores {
		if i := sort.SearchInts(dead, n); i < len(dead) && dead[i] == n {
			continue
		}
		replicas = append(replicas, st)
		if ov := s.overlay(n); ov != nil {
			replicas = append(replicas, ov)
		}
	}
	return func(t rdf.Triple) bool {
		for _, st := range replicas {
			if st.has(t) {
				return true
			}
		}
		return false
	}
}

// readDelta matches bp against the snapshot's ingest delta chunks,
// returning the combined rows (shared by every node's scan output —
// they are logically present on every node, and survive any node's
// death) and the postings touched. Charged to the gauge once — the
// rows are one materialization no matter how many nodes surface them.
func (s *Snap) readDelta(bp *boundPattern, g *resilience.Gauge) ([][]rdf.TermID, int64, error) {
	var rows [][]rdf.TermID
	var scanned int64
	for _, st := range s.delta {
		rel, n, _ := st.match(bp, keepAll, nil)
		scanned += n
		if err := rel.chargeTo(g, "scan"); err != nil {
			return nil, 0, err
		}
		rows = append(rows, rel.Rows...)
	}
	return rows, scanned, nil
}
