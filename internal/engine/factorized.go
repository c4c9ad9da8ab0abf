// Factorized (answer-graph) intermediates. A result-heavy join — a
// star around a hub variable, a high-fanout chain — produces an output
// whose flattened form is a near-cross-product of its inputs: O(rows)
// storage and time for rows that final DISTINCT projection mostly
// throws away. Following Answer Graph (Abul-Basher et al.), a
// FactorizedRelation keeps the join's column groups separate — one
// spine group holding the join variables plus one group per extending
// input — connected by link vectors carrying the per-row match lists
// (the multiplicities). Storage is O(vertices + edges): the groups'
// rows plus the links, never the product. The result is flattened only
// at projection, and then only the groups the projection actually
// needs — a SELECT over spine variables alone never materializes the
// fanout at all.
package engine

import (
	"context"
	"math"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
)

// satellite is one non-spine column group of a factorized relation: a
// shared reference to the source relation (never copied, never
// mutated) plus the link vectors tying each spine row to its matching
// satellite rows. Spine row i matches rel.Rows[sel[offs[i]:offs[i+1]]];
// every spine row has at least one match (rows without one are dropped
// when the group is attached). Only cols/vars — the columns extending
// the schema beyond the spine — are exposed; the shared join columns
// duplicate spine values and stay hidden.
type satellite struct {
	rel  *Relation
	cols []int
	vars []string
	offs []int32
	sel  []int32
}

// count returns spine row i's multiplicity in this group.
func (s *satellite) count(i int) int64 { return int64(s.offs[i+1] - s.offs[i]) }

// FactorizedRelation is an answer-graph intermediate: the join result
// of k inputs represented as a spine column group plus satellites
// linked by multiplicity vectors, logically equal to the flat natural
// join of the inputs. It is built by factorize, owned by one goroutine,
// and read-only afterwards.
type FactorizedRelation struct {
	spine *Relation
	sats  []*satellite

	// charged mirrors Relation.charged: bytes already reserved against
	// a memory gauge, so repeated charges pay only the delta.
	charged int64
}

// rowHeaderBytes approximates the cost of one shared spine-row
// reference (a slice header); the row payload lives in — and was
// charged by — the input relation it points into.
const rowHeaderBytes = 24

// linkEntryBytes is the size of one offs/sel vector entry (int32).
const linkEntryBytes = 4

// footprint is the factored storage this relation owns: the spine
// (arena bytes when absorb materialized it, row headers when it shares
// input storage) plus the link vectors. Satellite group payloads belong
// to the join inputs and are charged by their producers.
func (f *FactorizedRelation) footprint() int64 {
	var n int64
	if cap(f.spine.arena) > 0 {
		n += int64(cap(f.spine.arena)) * termIDBytes
	} else {
		n += int64(len(f.spine.Rows)) * rowHeaderBytes
	}
	for _, s := range f.sats {
		n += int64(len(s.offs)+len(s.sel)) * linkEntryBytes
	}
	return n
}

// chargeTo reserves the factored footprint against the query's memory
// gauge, attributed to site; later calls pay only the growth. This is
// the budget-side win of factorization: the same join that would
// reserve O(flat rows) arena bytes reserves O(groups + links).
func (f *FactorizedRelation) chargeTo(g *resilience.Gauge, site string) error {
	if g == nil || f == nil {
		return nil
	}
	delta := f.footprint() - f.charged
	if delta <= 0 {
		return nil
	}
	if err := g.Reserve(site, delta); err != nil {
		return err
	}
	f.charged += delta
	return nil
}

// Vars returns the full flat schema: spine columns then each
// satellite's extending columns, in attachment order. The schema
// evolution in factorize is driven only by the input schemas (never by
// data), so every node of a distributed operator produces the same
// schema.
func (f *FactorizedRelation) Vars() []string {
	out := append([]string{}, f.spine.Vars...)
	for _, s := range f.sats {
		out = append(out, s.vars...)
	}
	return out
}

// satAdd and satMul are saturating int64 arithmetic: a factored form
// can represent more flat rows than int64 holds (that is the point),
// so logical counts pin at MaxInt64 instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// flatCount returns the number of flat rows this relation represents —
// Σ over spine rows of the product of their satellite multiplicities —
// without flattening anything. Saturates at MaxInt64.
func (f *FactorizedRelation) flatCount() int64 {
	var total int64
	for i := range f.spine.Rows {
		c := int64(1)
		for _, s := range f.sats {
			c = satMul(c, s.count(i))
		}
		total = satAdd(total, c)
	}
	return total
}

// factorize builds the answer-graph join of rels: rels[0] seeds the
// spine, every further input is folded in by attach — connected inputs
// first, mirroring joinAll's greedy order. Each fold's link growth is
// charged to g under site, so a factorization that would blow the
// budget trips it before the memory is committed, exactly like the
// flat path's per-fold charges.
func factorize(ctx context.Context, g *resilience.Gauge, site string, rels []*Relation) (*FactorizedRelation, error) {
	f := &FactorizedRelation{spine: &Relation{Vars: rels[0].Vars, Rows: rels[0].Rows}}
	used := make([]bool, len(rels))
	used[0] = true
	for count := 1; count < len(rels); count++ {
		pick := -1
		for i, r := range rels {
			if !used[i] && f.sharesVarWith(r) {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := range rels {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		if err := f.attach(ctx, rels[pick]); err != nil {
			return nil, err
		}
		if err := f.chargeTo(g, site); err != nil {
			return nil, err
		}
		used[pick] = true
	}
	return f, nil
}

// sharesVarWith reports whether r shares a variable with any group.
func (f *FactorizedRelation) sharesVarWith(r *Relation) bool {
	for _, v := range r.Vars {
		if f.spine.colIndex(v) >= 0 {
			return true
		}
		for _, s := range f.sats {
			for _, sv := range s.vars {
				if sv == v {
					return true
				}
			}
		}
	}
	return false
}

// satSharing returns the first satellite exposing a variable r joins
// on, or -1.
func (f *FactorizedRelation) satSharing(r *Relation) int {
	for si, s := range f.sats {
		for _, v := range s.vars {
			if r.colIndex(v) >= 0 {
				return si
			}
		}
	}
	return -1
}

// attach folds one input relation into the factorization. Inputs
// joining on spine variables become a new satellite (or, with no
// extending columns, a pure semi-join filter: under set semantics a
// multiplicity-only group changes nothing and is dropped). Inputs
// joining on a satellite's variables first absorb that satellite into
// the spine — the snowflake case, where part of the fanout must
// materialize so the next link has somewhere to anchor. A disconnected
// input (impossible under Cartesian-product-free plans; kept as a
// defensive path) flattens everything and falls back to the flat join.
func (f *FactorizedRelation) attach(ctx context.Context, r *Relation) error {
	for {
		si := f.satSharing(r)
		if si < 0 {
			break
		}
		f.absorb(si)
	}
	shared := sharedVars(f.spine, r)
	if len(shared) == 0 {
		for len(f.sats) > 0 {
			f.absorb(0)
		}
		joined, err := hashJoin(ctx, f.spine, r)
		if err != nil {
			return err
		}
		f.spine = joined
		return nil
	}
	spineCols := make([]int, len(shared))
	rCols := make([]int, len(shared))
	for i, v := range shared {
		spineCols[i] = f.spine.colIndex(v)
		rCols[i] = r.colIndex(v)
	}
	index := newRowTable(r.Rows, rCols)
	offs := make([]int32, 1, len(f.spine.Rows)+1)
	var sel, keep []int32
	ops := 0
	for i, row := range f.spine.Rows {
		before := len(sel)
		for _, ri := range index.buckets[hashCols(row, spineCols)] {
			if ops++; ops&(cancelEvery-1) == 0 {
				if err := obs.Canceled(ctx, "join"); err != nil {
					return err
				}
			}
			if equalOn(row, spineCols, r.Rows[ri], rCols) {
				sel = append(sel, ri)
			}
		}
		if ops++; ops&(cancelEvery-1) == 0 {
			if err := obs.Canceled(ctx, "join"); err != nil {
				return err
			}
		}
		if len(sel) > before {
			keep = append(keep, int32(i))
			offs = append(offs, int32(len(sel)))
		}
	}
	if len(keep) < len(f.spine.Rows) {
		f.compact(keep)
	}
	var cols []int
	var vars []string
	for j, v := range r.Vars {
		if f.spine.colIndex(v) < 0 {
			cols = append(cols, j)
			vars = append(vars, v)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	f.sats = append(f.sats, &satellite{rel: r, cols: cols, vars: vars, offs: offs, sel: sel})
	return nil
}

// compact drops every spine row not in keep, rewriting the existing
// satellites' link vectors to the surviving rows. keep is ascending.
func (f *FactorizedRelation) compact(keep []int32) {
	rows := make([][]rdf.TermID, len(keep))
	for i, k := range keep {
		rows[i] = f.spine.Rows[k]
	}
	for _, s := range f.sats {
		offs := make([]int32, 1, len(keep)+1)
		sel := make([]int32, 0, len(s.sel))
		for _, k := range keep {
			sel = append(sel, s.sel[s.offs[k]:s.offs[k+1]]...)
			offs = append(offs, int32(len(sel)))
		}
		s.offs, s.sel = offs, sel
	}
	f.spine.Rows = rows
}

// absorb flattens satellite si into the spine: every spine row is
// replicated once per matching satellite row, merged with that row's
// extending columns; the remaining satellites' links are replicated
// alongside. This is the controlled, partial flatten the snowflake
// case needs — the absorbed group's fanout materializes, every other
// group stays factored.
func (f *FactorizedRelation) absorb(si int) {
	s := f.sats[si]
	vars := append(append([]string{}, f.spine.Vars...), s.vars...)
	out := newRelation(vars, len(f.spine.Rows))
	for i, row := range f.spine.Rows {
		for _, m := range s.sel[s.offs[i]:s.offs[i+1]] {
			out.appendMerged(row, s.rel.Rows[m], s.cols)
		}
	}
	rest := make([]*satellite, 0, len(f.sats)-1)
	for sj, o := range f.sats {
		if sj == si {
			continue
		}
		no := &satellite{rel: o.rel, cols: o.cols, vars: o.vars}
		no.offs = make([]int32, 1, len(out.Rows)+1)
		no.sel = make([]int32, 0, len(o.sel))
		for i := range f.spine.Rows {
			matches := o.sel[o.offs[i]:o.offs[i+1]]
			for c := s.count(i); c > 0; c-- {
				no.sel = append(no.sel, matches...)
				no.offs = append(no.offs, int32(len(no.sel)))
			}
		}
		rest = append(rest, no)
	}
	f.spine = out
	f.sats = rest
}

// colRef locates a variable in the factored schema: group -1 is the
// spine, otherwise a satellite index; col is the column within the
// group's exposed columns (for satellites, an index into cols).
func (f *FactorizedRelation) colRef(v string) (group, col int) {
	if c := f.spine.colIndex(v); c >= 0 {
		return -1, c
	}
	for si, s := range f.sats {
		for j, sv := range s.vars {
			if sv == v {
				return si, j
			}
		}
	}
	return 0, -1
}
