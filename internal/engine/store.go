package engine

import (
	"cmp"
	"slices"
	"sort"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// store is one node's local triple fragment held as four sorted copies
// — the SPO, POS, OSP and PSO permutations — standing in for the
// per-node RDF-3X instance of the paper's prototype. Every combination
// of constant positions is a prefix of one of the first three orders,
// so a pattern's candidates are one binary-searched range with nothing
// left to filter, and membership is one binary search. PSO adds the
// one order a star on a subject needs that those three lack: the range
// of ?x <p> ?o sorted on ?x (see orderedAs).
type store struct {
	spo, pos, osp, pso []rdf.Triple
}

// perm names a sort order by the triple component it compares first.
type perm uint8

const (
	permSPO perm = iota
	permPOS
	permOSP
	permPSO
)

// key returns t's components in p's comparison order.
func (p perm) key(t rdf.Triple) (a, b, c rdf.TermID) {
	switch p {
	case permPOS:
		return t.P, t.O, t.S
	case permOSP:
		return t.O, t.S, t.P
	case permPSO:
		return t.P, t.S, t.O
	}
	return t.S, t.P, t.O
}

// comps returns p's comparison order as triple components.
func (p perm) comps() [3]int {
	switch p {
	case permPOS:
		return [3]int{compP, compO, compS}
	case permOSP:
		return [3]int{compO, compS, compP}
	case permPSO:
		return [3]int{compP, compS, compO}
	}
	return [3]int{compS, compP, compO}
}

// in returns s's copy sorted under p.
func (p perm) in(s *store) []rdf.Triple {
	switch p {
	case permPOS:
		return s.pos
	case permOSP:
		return s.osp
	case permPSO:
		return s.pso
	}
	return s.spo
}

// prefixCmp compares the first k components of t under p with (a, b, c).
func (p perm) prefixCmp(t rdf.Triple, k int, a, b, c rdf.TermID) int {
	x, y, z := p.key(t)
	switch {
	case x != a:
		return cmp.Compare(x, a)
	case k == 1:
		return 0
	case y != b:
		return cmp.Compare(y, b)
	case k == 2:
		return 0
	}
	return cmp.Compare(z, c)
}

// cmp orders two triples under p.
func (p perm) cmp(t, u rdf.Triple) int {
	a, b, c := p.key(u)
	return p.prefixCmp(t, 3, a, b, c)
}

// prefixRange returns the run of ts — sorted under p — whose first k
// components equal (a, b, c). The lower end is a binary search; the
// upper end gallops from it, so the short ranges point lookups return
// cost one or two comparisons more.
func (p perm) prefixRange(ts []rdf.Triple, k int, a, b, c rdf.TermID) []rdf.Triple {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.prefixCmp(ts[mid], k, a, b, c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Invariant: everything before end matches or precedes the prefix,
	// ts[bound] (when in range) follows it.
	end, step := lo, 1
	bound := len(ts)
	for end+step <= len(ts) {
		if p.prefixCmp(ts[end+step-1], k, a, b, c) > 0 {
			bound = end + step - 1
			break
		}
		end += step
		step *= 2
	}
	for end < bound {
		mid := int(uint(end+bound) >> 1)
		if p.prefixCmp(ts[mid], k, a, b, c) > 0 {
			bound = mid
		} else {
			end = mid + 1
		}
	}
	return ts[lo:end]
}

// radixMin is the fragment size from which the permutations are built
// by radix sort; below it the per-pass counter work outweighs a
// comparison sort (ingest chunks are a few dozen triples).
const radixMin = 256

// newStore sorts a copy of triples into the four permutations. The
// input is left untouched: placements and write deltas stay their
// owners'.
func newStore(triples []rdf.Triple) *store {
	var tmp []rdf.Triple
	return buildStore(triples, &tmp)
}

// buildStore is newStore with the radix sort's scratch buffer supplied
// by the caller, grown as needed, so a worker building several stores
// allocates it once.
func buildStore(triples []rdf.Triple, tmp *[]rdf.Triple) *store {
	n := len(triples)
	s := &store{spo: make([]rdf.Triple, n), pos: make([]rdf.Triple, n), osp: make([]rdf.Triple, n), pso: make([]rdf.Triple, n)}
	if n < radixMin {
		for _, p := range []perm{permSPO, permPOS, permOSP, permPSO} {
			dst := p.in(s)
			copy(dst, triples)
			slices.SortFunc(dst, p.cmp)
		}
		return s
	}
	if cap(*tmp) < n {
		*tmp = make([]rdf.Triple, n)
	}
	// Each order is one stable pass away from another: SPO re-sorted on
	// O is OSP, OSP re-sorted on P is POS, SPO re-sorted on P is PSO. Six
	// component sorts, not twelve.
	radixSort(s.spo, (*tmp)[:n], triples, compO, compP, compS)
	radixSort(s.osp, (*tmp)[:n], s.spo, compO)
	radixSort(s.pos, (*tmp)[:n], s.osp, compP)
	radixSort(s.pso, (*tmp)[:n], s.spo, compP)
	return s
}

// Triple components, as radix sort keys.
const (
	compS = iota
	compP
	compO
)

func component(t rdf.Triple, c int) rdf.TermID {
	switch c {
	case compS:
		return t.S
	case compP:
		return t.P
	}
	return t.O
}

const (
	radixBits   = 11
	radixSize   = 1 << radixBits
	radixDigits = 3 // ⌈32 / radixBits⌉ digits cover a TermID
)

// radixSort writes src into dst stably sorted by the given components,
// least significant first, using tmp as the ping-pong buffer; src is
// only read. It is an LSD radix sort over the dense dictionary IDs:
// every digit's histogram is taken in one read of src (the multiset of
// keys does not change between passes), and a digit on which all keys
// agree — the high digits of a small dictionary, the predicate of a
// single-predicate fragment — costs no pass at all.
func radixSort(dst, tmp, src []rdf.Triple, comps ...int) {
	n := len(src)
	hist := make([][radixSize]uint32, len(comps)*radixDigits)
	for _, t := range src {
		for ci, c := range comps {
			v := component(t, c)
			for d := 0; d < radixDigits; d++ {
				hist[ci*radixDigits+d][(v>>(d*radixBits))&(radixSize-1)]++
			}
		}
	}
	type pass struct{ comp, shift, hist int }
	var passes []pass
	if n > 0 {
		for ci, c := range comps {
			v := component(src[0], c)
			for d := 0; d < radixDigits; d++ {
				h := ci*radixDigits + d
				if hist[h][(v>>(d*radixBits))&(radixSize-1)] == uint32(n) {
					continue
				}
				passes = append(passes, pass{comp: c, shift: d * radixBits, hist: h})
			}
		}
	}
	if len(passes) == 0 {
		copy(dst, src)
		return
	}
	from := src
	for i, ps := range passes {
		// Alternate so that the last pass lands in dst.
		to := tmp
		if (len(passes)-1-i)%2 == 0 {
			to = dst
		}
		offs := &hist[ps.hist]
		var sum uint32
		for b := range offs {
			offs[b], sum = sum, sum+offs[b]
		}
		for _, t := range from {
			b := (component(t, ps.comp) >> ps.shift) & (radixSize - 1)
			to[offs[b]] = t
			offs[b]++
		}
		from = to
	}
}

// mergeStores returns the store holding a's and b's triples, merging
// the already-sorted permutations linearly instead of sorting again.
func mergeStores(a, b *store) *store {
	return &store{
		spo: mergeSorted(permSPO, a.spo, b.spo),
		pos: mergeSorted(permPOS, a.pos, b.pos),
		osp: mergeSorted(permOSP, a.osp, b.osp),
		pso: mergeSorted(permPSO, a.pso, b.pso),
	}
}

func mergeSorted(p perm, a, b []rdf.Triple) []rdf.Triple {
	out := make([]rdf.Triple, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if p.cmp(b[0], a[0]) < 0 {
			out = append(out, b[0])
			b = b[1:]
		} else {
			out = append(out, a[0])
			a = a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// boundPattern is a triple pattern with constants resolved to IDs.
type boundPattern struct {
	vars                   []string // output schema
	sConst, pConst, oConst bool
	s, p, o                rdf.TermID
	sVar, pVar, oVar       int // column index for each variable position, -1 if constant
	unknown                bool
	// repeated marks a variable standing at two positions (?x <p> ?x):
	// the candidate range then over-approximates the matches.
	repeated bool
}

// bindPattern resolves constants against the dictionary. A constant
// missing from the dictionary matches nothing (unknown=true).
func bindPattern(dict *rdf.Dict, tp sparql.TriplePattern) boundPattern {
	bp := boundPattern{sVar: -1, pVar: -1, oVar: -1}
	col := func(name string) int {
		for i, v := range bp.vars {
			if v == name {
				bp.repeated = true
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

// nodeKeep is the engine's one "keep on node-of(term)" filter: a row
// survives only on the node nodeOf names for its term at col. A root
// scan keeps each row on its subject's home (partition.Placement.Home).
// col < 0 keeps every row.
type nodeKeep struct {
	col    int
	nodeOf func(rdf.TermID) int
}

var keepAll = nodeKeep{col: -1}

// keeps reports whether row stays on node.
func (k nodeKeep) keeps(row []rdf.TermID, node int) bool {
	return k.col < 0 || k.nodeOf(row[k.col]) == node
}

// candidates returns the triples agreeing with every constant of bp:
// the prefix range of the one permutation whose order starts with the
// constant positions. With no constant it is the SPO copy itself.
func (s *store) candidates(bp *boundPattern) []rdf.Triple {
	switch {
	case bp.unknown:
		return nil
	case bp.sConst && bp.pConst && bp.oConst:
		return permSPO.prefixRange(s.spo, 3, bp.s, bp.p, bp.o)
	case bp.sConst && bp.pConst:
		return permSPO.prefixRange(s.spo, 2, bp.s, bp.p, 0)
	case bp.pConst && bp.oConst:
		return permPOS.prefixRange(s.pos, 2, bp.p, bp.o, 0)
	case bp.oConst && bp.sConst:
		return permOSP.prefixRange(s.osp, 2, bp.o, bp.s, 0)
	case bp.sConst:
		return permSPO.prefixRange(s.spo, 1, bp.s, 0, 0)
	case bp.pConst:
		return permPOS.prefixRange(s.pos, 1, bp.p, 0, 0)
	case bp.oConst:
		return permOSP.prefixRange(s.osp, 1, bp.o, 0, 0)
	}
	return s.spo
}

// orderedAs picks the permutation whose range for bp's constants is
// sorted on the triple components comps, the first the most significant
// — bp's variables in a join's order — and reports whether there is one:
// a permutation that puts every constant first and then comps. With
// SPO/POS/OSP/PSO every constant-predicate shape has one: PSO for
// ?s <p> ?o with ?s first, POS with ?o first or for ?s <p> <o>, SPO for
// <s> <p> ?o. There is none for a variable at two positions, for
// <s> ?p ?o ordered on ?o (its SPO range is sorted on ?p first), for
// ?s ?p ?o ordered on ?s then ?o, or for a constant missing from the
// dictionary.
func (bp *boundPattern) orderedAs(comps []int) (perm, bool) {
	if bp.unknown || bp.repeated || slices.ContainsFunc(comps, bp.isConst) {
		return 0, false
	}
	consts := 0
	for c := range 3 {
		if bp.isConst(c) {
			consts++
		}
	}
perms:
	for _, p := range []perm{permSPO, permPOS, permOSP, permPSO} {
		if bp.leadingConsts(p) != consts {
			continue
		}
		for i, c := range comps {
			if p.comps()[consts+i] != c {
				continue perms
			}
		}
		return p, true
	}
	return 0, false
}

// isConst reports whether triple component c of bp is a constant.
func (bp *boundPattern) isConst(c int) bool {
	switch c {
	case compS:
		return bp.sConst
	case compP:
		return bp.pConst
	}
	return bp.oConst
}

// leadingConsts returns how many of p's components, from the first, are
// constants of bp: the length of bp's prefix under p.
func (bp *boundPattern) leadingConsts(p perm) int {
	order := p.comps()
	k := 0
	for k < 3 && bp.isConst(order[k]) {
		k++
	}
	return k
}

// rangeIn returns bp's candidates as the prefix range of permutation p,
// which must lead with every constant of bp (see orderedAs).
func (s *store) rangeIn(bp *boundPattern, p perm) []rdf.Triple {
	k := bp.leadingConsts(p)
	if k == 0 {
		return p.in(s)
	}
	a, b, c := p.key(rdf.Triple{S: bp.s, P: bp.p, O: bp.o})
	return p.prefixRange(p.in(s), k, a, b, c)
}

// match reads the pattern's candidate range and appends one row per
// matching triple to out. It is the only loop over candidates; every read
// the engine performs is a parameterization of it. A matched row must
// clear two optional gates, in this order: keep on node, then live (nil = every
// copy is live) — the failover coverage check, asked for the row's
// triple when this store stands in for a dead node's placement
// manifest. scanned is the number of postings touched — the range's
// length; missing counts the kept rows live rejects (rows another node
// keeps anyway never demand a replica). bp is shared read-only by the
// concurrent per-node reads of one scan.
func (s *store) match(bp *boundPattern, keep nodeKeep, node int, live func(rdf.Triple) bool, out *Relation) (scanned int64, missing int) {
	candidates := s.candidates(bp)
	out.reserve(len(candidates))
	var buf [3]rdf.TermID // a triple pattern binds at most 3 variables
	row := buf[:len(bp.vars)]
	for _, t := range candidates {
		if !fillRow(row, bp, t) {
			continue
		}
		if !keep.keeps(row, node) {
			continue
		}
		if live != nil && !live(t) {
			missing++
			continue
		}
		out.appendCopy(row)
	}
	return int64(len(candidates)), missing
}

// has reports whether the store holds t: one binary search.
func (s *store) has(t rdf.Triple) bool {
	return len(permSPO.prefixRange(s.spo, 3, t.S, t.P, t.O)) > 0
}

// fillRow writes the variable positions of t into row; a repeated
// variable (e.g. ?x <p> ?x) must bind equal values. It reports whether
// the triple is a match.
func fillRow(row []rdf.TermID, bp *boundPattern, t rdf.Triple) bool {
	if !bp.repeated {
		if bp.sVar >= 0 {
			row[bp.sVar] = t.S
		}
		if bp.pVar >= 0 {
			row[bp.pVar] = t.P
		}
		if bp.oVar >= 0 {
			row[bp.oVar] = t.O
		}
		return true
	}
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

// read is the engine's one per-node fragment read: the rows of bp in
// node's base fragment that keep leaves on it. (The other part of the
// fragment view, the broadcast delta, is node-independent; readDelta
// matches it once per operator.) A root scan's home read keeps each row
// on its subject's home, which every method with a home places each
// triple on. The node's recovery overlay is never read: its copies
// duplicate base triples a dead node holds, and serve only failover.
//
// A non-nil dead set (which then contains node) makes the read a
// failover read: node's base fragment is walked as the placement
// manifest of what the node held, and each kept triple must have a copy
// on a live node's base fragment or overlay, answered by those replicas'
// own indexes. Delta triples never appear in base fragments or overlays
// and are replicated everywhere, so they need no check. With missing
// == 0 the relation is bit-identical to the healthy node's read.
// scanned is the postings touched on the node's own stores.
func (s *Snap) read(node int, bp *boundPattern, keep nodeKeep, dead []int) (rel *Relation, scanned int64, missing int) {
	var live func(rdf.Triple) bool
	if dead != nil {
		live = s.liveCopy(dead)
	}
	rel = &Relation{Vars: bp.vars}
	scanned, missing = s.stores[node].match(bp, keep, node, live, rel)
	return rel, scanned, missing
}

// liveCopy returns the failover coverage check for a dead set (sorted
// ascending): whether a triple has a copy on some live node's base
// fragment or overlay. Kept out of read so the healthy read's stack
// frame stays small — a scan's reads on busy nodes run on fresh
// goroutines, and a deeper frame chain costs each of them a stack
// growth.
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
	if len(s.delta) == 0 {
		return nil, 0, nil
	}
	rel := &Relation{Vars: bp.vars}
	var scanned int64
	for _, st := range s.delta {
		n, _ := st.match(bp, keepAll, 0, nil, rel)
		scanned += n
	}
	if err := rel.chargeTo(g, "scan"); err != nil {
		return nil, 0, err
	}
	return rel.Rows, scanned, nil
}
