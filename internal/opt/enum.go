// Package opt implements the paper's core contribution: optimal-
// efficiency enumeration of k-ary bushy query plans.
//
//   - ConnBinDivision is Algorithm 2: it emits every connected
//     binary-division (cbd) of a query on a join variable exactly once,
//     in Θ(|V_T|) amortized time per division (Lemma 6).
//   - ConnMultiDivision is Algorithm 3: it emits every connected
//     multi-division (cmd, Definition 3) exactly once by recursively
//     peeling cbds (Theorem 2), in Θ(|V_T|) amortized time per cmd
//     (Lemma 3).
//   - Optimize is Algorithm 1: memoized top-down join enumeration over
//     cmds (TD-CMD), with the TD-CMDP pruning rules (§IV-A), the
//     HGR-TD-CMD join-graph reduction (§IV-B) and the TD-Auto decision
//     tree (§IV-C) layered on top.
package opt

import (
	"math/bits"
	"sync"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
)

// ConnBinDivision enumerates the connected binary-divisions of the
// subquery q on join variable vj (Algorithm 2). For every cbd
// (SQ, q\SQ, v_j) it calls emit(SQ, q\SQ); enumeration stops early if
// emit returns false. The side passed first always contains the
// lowest-indexed pattern of N_tp(v_j) ∩ q, which makes each unordered
// division appear exactly once. It allocates nothing: each component
// of q − v_j is found when the first side first reaches into it, and
// every other step is a bit operation on the join graph's exclusion
// masks.
//
// q must be a connected subquery of jg's query.
func ConnBinDivision(jg *querygraph.JoinGraph, q bitset.TPSet, vj int, emit func(sq, rest bitset.TPSet) bool) {
	connBinDivision(jg, q, vj, false, emit)
}

// connBinDivision is ConnBinDivision; with single set it emits only
// the cbds whose first side holds one vj-neighbor, in the same order.
// A first side only grows, so a branch is cut as soon as it would take
// a second neighbor, and the search never leaves the first neighbor's
// component of q − v_j.
func connBinDivision(jg *querygraph.JoinGraph, q bitset.TPSet, vj int, single bool, emit func(sq, rest bitset.TPSet) bool) {
	neighbors := jg.Ntp[vj].Intersect(q)
	if neighbors.Len() < 2 {
		return // both sides need a pattern adjacent to vj
	}
	d := binDiv{jg: jg, q: q, vj: vj, neighbors: neighbors}
	if single {
		c := jg.ReachExcluding(q, bitset.Single(neighbors.Min()), vj)
		if c.Intersect(neighbors).Len() == 1 {
			emit(c, q.Diff(c)) // an indivisible component is the only side (Lemma 1)
			return
		}
		d.comps[0], d.ncomps, d.cut = c, 1, neighbors
	}
	d.rec(0, 0, 0, emit)
}

// binDiv is the state of one ConnBinDivision call.
type binDiv struct {
	jg        *querygraph.JoinGraph
	q         bitset.TPSet
	vj        int
	neighbors bitset.TPSet // N_tp(v_j) ∩ q
	// cut holds the patterns no branch below the root may add: the
	// neighbors when only single-neighbor first sides are wanted.
	cut bitset.TPSet
	// comps[:ncomps] are the first components of q − v_j found.
	comps  [8]bitset.TPSet
	ncomps int
}

// component returns tp's connected component of q − v_j, remembering
// the first eight it finds; a later one is searched for each time.
func (d *binDiv) component(tp int) bitset.TPSet {
	for _, c := range d.comps[:d.ncomps] {
		if c.Has(tp) {
			return c
		}
	}
	c := d.jg.ReachExcluding(d.q, bitset.Single(tp), d.vj)
	if d.ncomps < len(d.comps) {
		d.comps[d.ncomps] = c
		d.ncomps++
	}
	return c
}

// extension returns the set that must be added to sq together with
// tp: the whole component when it is indivisible (Lemma 1), or {tp}
// plus the fall-off parts — the patterns of the rest of the component
// that no remaining vj-neighbor reaches without vj (Lemma 2) — when it
// is divisible.
func (d *binDiv) extension(sq bitset.TPSet, tp int) bitset.TPSet {
	comp := d.component(tp)
	if comp.Intersect(d.neighbors).Len() == 1 {
		return comp // indivisible component: take it whole
	}
	rest := comp.Diff(sq).Remove(tp)
	anchored := d.jg.ReachExcluding(rest, rest.Intersect(d.neighbors), d.vj)
	return rest.Diff(anchored).Add(tp)
}

// rec extends sq; x holds the frontier patterns already branched on at
// enclosing levels, whose divisions were enumerated there, and adj is
// jg.Neighbors(sq), grown with each extension.
func (d *binDiv) rec(sq, x, adj bitset.TPSet, emit func(sq, rest bitset.TPSet) bool) bool {
	var frontier bitset.TPSet
	if sq.IsEmpty() {
		frontier = bitset.Single(d.neighbors.Min())
	} else {
		if !emit(sq, d.q.Diff(sq)) {
			return false
		}
		frontier = adj.Intersect(d.q).Diff(sq).Diff(x).Diff(d.cut)
	}
	for f := frontier; f != 0; f &= f - 1 {
		tp := bits.TrailingZeros64(uint64(f))
		ext := d.extension(sq, tp)
		next := sq.Union(ext)
		// Skip divisions already emitted under an earlier branch (ext
		// pulled in an excluded pattern) and the degenerate full
		// division.
		if !ext.Overlaps(x) && next != d.q {
			if !d.rec(next, x, adj.Union(d.jg.Neighbors(ext)), emit) {
				return false
			}
		}
		x = x.Add(tp)
	}
	return true
}

// CMD is one connected multi-division (Definition 3): a partition of a
// subquery into k ≥ 2 connected parts, each containing a pattern
// adjacent to the common join variable Var.
type CMD struct {
	// Parts are the k subqueries SQ_1 ... SQ_k.
	Parts []bitset.TPSet
	// Var is the index of the join variable v_j in the join graph.
	Var int
}

// partsPool recycles the buffer ConnMultiDivision hands to emit as
// CMD.Parts. The buffer must live on the heap, since emit may be any
// function, and pooling it keeps a call allocation-free.
var partsPool = sync.Pool{New: func() any { return new([bitset.MaxPatterns]bitset.TPSet) }}

// ConnMultiDivision enumerates the connected multi-divisions of the
// subquery q (Algorithm 3), calling emit once per cmd; enumeration
// stops early if emit returns false. The Parts slice passed to emit is
// reused across calls — copy it to retain.
//
// When pruneCCMD is true, only binary divisions and connected
// complete-multi-divisions (ccmds — every part contains exactly one
// vj-neighbor) are emitted, implementing Rule 1 of TD-CMDP. They are
// generated, not filtered, and come in the order the unpruned
// enumeration emits them.
func ConnMultiDivision(jg *querygraph.JoinGraph, q bitset.TPSet, pruneCCMD bool, emit func(cmd CMD) bool) {
	if q.Len() < 2 {
		return
	}
	buf := partsPool.Get().(*[bitset.MaxPatterns]bitset.TPSet)
	defer partsPool.Put(buf)
	for vj := range jg.Vars {
		neighbors := jg.Ntp[vj].Intersect(q)
		if neighbors.Len() < 2 {
			continue
		}
		m := multiDiv{jg: jg, vj: vj, neighbors: neighbors, prune: pruneCCMD, parts: buf[:0]}
		if !m.rec(q, true, emit) {
			return
		}
	}
}

// multiDiv is the state of ConnMultiDivision on one join variable.
type multiDiv struct {
	jg        *querygraph.JoinGraph
	vj        int
	neighbors bitset.TPSet // N_tp(v_j) ∩ q
	prune     bool
	parts     []bitset.TPSet // parts peeled so far
}

// single reports whether s holds exactly one vj-neighbor.
func (m *multiDiv) single(s bitset.TPSet) bool { return s.Intersect(m.neighbors).Len() == 1 }

// rec peels cbds of rest on vj, accumulating peeled parts. allSingle
// tracks whether every accumulated part has exactly one vj-neighbor.
// Under pruning (Rule 1) a k>2 division must be complete, so a peel
// below the first generates only single-neighbor first sides, and no
// peel follows a part with several neighbors: neither could end in a
// ccmd.
func (m *multiDiv) rec(rest bitset.TPSet, allSingle bool, emit func(cmd CMD) bool) bool {
	peeled := len(m.parts) > 0
	if peeled {
		if len(m.parts) == 1 || !m.prune || (allSingle && m.single(rest)) {
			m.parts = append(m.parts, rest)
			ok := emit(CMD{Parts: m.parts, Var: m.vj})
			m.parts = m.parts[:len(m.parts)-1]
			if !ok {
				return false
			}
		}
	}
	if m.single(rest) || (m.prune && peeled && !allSingle) {
		return true
	}
	cont := true
	connBinDivision(m.jg, rest, m.vj, m.prune && peeled, func(a, b bitset.TPSet) bool {
		m.parts = append(m.parts, a)
		cont = m.rec(b, allSingle && m.single(a), emit)
		m.parts = m.parts[:len(m.parts)-1]
		return cont
	})
	return cont
}
