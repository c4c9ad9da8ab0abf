package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparqlopt/internal/rdf"
)

// randomFragment draws n triples over a small vocabulary, so that terms
// recur across positions (self-loops included) and triples repeat, with
// TermID 0 and the largest ID among them; wide spreads the IDs over all
// 32 bits so every radix digit is exercised.
func randomFragment(r *rand.Rand, n int, wide bool) []rdf.Triple {
	vocab := []rdf.TermID{0, 1, 2, 3, 5, 8, 2047, 2048, 1 << 22, math.MaxUint32}
	if wide {
		for i := 0; i < 40; i++ {
			vocab = append(vocab, rdf.TermID(r.Uint32()))
		}
	}
	pick := func() rdf.TermID { return vocab[r.Intn(len(vocab))] }
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.Triple{S: pick(), P: pick(), O: pick()}
	}
	return ts
}

// TestStoreRanges holds the sorted-permutation store to linear scans of
// the triple list it was built from: the four permutations against a
// comparison sort (on both sides of radixMin, so the radix and the
// comparison builds are both held to it), every constant mask's
// candidate range and match's rows — ?x ?p ?x included — against a
// filter, its ordered range for every order of its free positions —
// served exactly for the shapes a permutation sorts that way (pinned for
// a variable at the subject and at the object), sorted so and a
// permutation of the candidates — has against a
// search, and a merge of all four orders against a rebuild. A constant
// missing from the dictionary has no ordered range.
func TestStoreRanges(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// {constant mask, position of the variable} → the permutation whose
	// range is sorted on it; the shapes missing here have none.
	orderedBy := map[[2]int]perm{
		{0b010, compS}: permPSO, {0b110, compS}: permPOS, {0b100, compS}: permOSP, {0b000, compS}: permSPO,
		{0b011, compO}: permSPO, {0b010, compO}: permPOS, {0b000, compO}: permOSP,
	}
	for trial := 0; trial < 60; trial++ {
		n := []int{0, 1, 7, radixMin - 1, radixMin, 3 * radixMin}[trial%6]
		ts := randomFragment(r, n, trial%2 == 1)
		input := slices.Clone(ts)
		st := newStore(ts)
		if !slices.Equal(ts, input) {
			t.Fatalf("trial %d: newStore reordered its input", trial)
		}
		for _, o := range []struct {
			name string
			got  []rdf.Triple
			p    perm
		}{{"spo", st.spo, permSPO}, {"pos", st.pos, permPOS}, {"osp", st.osp, permOSP}, {"pso", st.pso, permPSO}} {
			want := slices.Clone(ts)
			slices.SortFunc(want, o.p.cmp)
			if !slices.Equal(o.got, want) {
				t.Fatalf("trial %d (n=%d): %s permutation differs from a comparison sort", trial, n, o.name)
			}
		}
		probes := randomFragment(r, 20, true)
		for i := 0; i < 20 && n > 0; i++ {
			probes = append(probes, ts[r.Intn(n)])
		}
		for _, c := range probes {
			if got, want := st.has(c), slices.Contains(ts, c); got != want {
				t.Fatalf("trial %d: has(%v) = %v, want %v", trial, c, got, want)
			}
			for mask := 0; mask < 8; mask++ {
				for _, repeat := range []bool{false, true} {
					bp := boundPattern{sVar: -1, pVar: -1, oVar: -1, s: c.S, p: c.P, o: c.O,
						sConst: mask&1 != 0, pConst: mask&2 != 0, oConst: mask&4 != 0}
					for _, pos := range []struct {
						isConst bool
						col     *int
						name    string
					}{{bp.sConst, &bp.sVar, "s"}, {bp.pConst, &bp.pVar, "p"}, {bp.oConst, &bp.oVar, "o"}} {
						if pos.isConst {
							continue
						}
						if repeat && len(bp.vars) > 0 {
							// ?x at every free position.
							*pos.col, bp.repeated = 0, true
							continue
						}
						*pos.col = len(bp.vars)
						bp.vars = append(bp.vars, pos.name)
					}
					var wantRange int64
					var want [][]rdf.TermID
					for _, u := range ts {
						if bp.sConst && u.S != c.S || bp.pConst && u.P != c.P || bp.oConst && u.O != c.O {
							continue
						}
						wantRange++
						row := make([]rdf.TermID, len(bp.vars))
						ok := true
						seen := make([]bool, len(bp.vars))
						for _, b := range []struct {
							col int
							v   rdf.TermID
						}{{bp.sVar, u.S}, {bp.pVar, u.P}, {bp.oVar, u.O}} {
							if b.col < 0 {
								continue
							}
							if seen[b.col] && row[b.col] != b.v {
								ok = false
							}
							seen[b.col], row[b.col] = true, b.v
						}
						if ok {
							want = append(want, row)
						}
					}
					rel := &Relation{Vars: bp.vars}
					scanned, _ := st.match(&bp, keepAll, 0, nil, rel)
					if scanned != wantRange {
						t.Fatalf("trial %d: mask %03b of %v touched %d postings, a filter keeps %d", trial, mask, c, scanned, wantRange)
					}
					if !slices.Equal(sortedKeys(rel), sortedKeys(&Relation{Rows: want})) {
						t.Fatalf("trial %d: mask %03b repeat=%v of %v matched %v, want %v", trial, mask, repeat, c, rel.Rows, want)
					}
					for _, comp := range []int{compS, compO} {
						p, ok := bp.orderedAs([]int{comp})
						wantPerm, wantOK := orderedBy[[2]int{mask, comp}]
						wantOK = wantOK && !bp.repeated
						if ok != wantOK || ok && p != wantPerm {
							t.Fatalf("mask %03b repeat=%v position %d: orderedAs = (%d, %v), want (%d, %v)", mask, repeat, comp, p, ok, wantPerm, wantOK)
						}
					}
					// Every order of every set of free positions: a range exactly
					// when some permutation puts the constants first and then
					// those positions, sorted on them, the first the most
					// significant.
					var free []int
					for comp := range 3 {
						if !bp.isConst(comp) {
							free = append(free, comp)
						}
					}
					for _, comps := range orderings(free) {
						p, ok := bp.orderedAs(comps)
						wantOK := !bp.repeated && slices.ContainsFunc([]perm{permSPO, permPOS, permOSP, permPSO}, func(q perm) bool {
							k, order := bp.leadingConsts(q), q.comps()
							return k == 3-len(free) && slices.Equal(order[k:k+len(comps)], comps)
						})
						if ok != wantOK {
							t.Fatalf("mask %03b repeat=%v: orderedAs(%v) ok = %v, want %v", mask, repeat, comps, ok, wantOK)
						}
						if !ok {
							continue
						}
						got := st.rangeIn(&bp, p)
						if !slices.IsSortedFunc(got, func(a, b rdf.Triple) int {
							for _, c := range comps {
								if d := cmp.Compare(component(a, c), component(b, c)); d != 0 {
									return d
								}
							}
							return 0
						}) {
							t.Fatalf("trial %d: mask %03b of %v: range not sorted on positions %v: %v", trial, mask, c, comps, got)
						}
						if cands := st.candidates(&bp); !slices.Equal(sortedTriples(got), sortedTriples(cands)) {
							t.Fatalf("trial %d: mask %03b of %v: ordered range %v is not a permutation of candidates %v", trial, mask, c, got, cands)
						}
					}
				}
			}
		}
		unknown := boundPattern{vars: []string{"x", "o"}, sVar: 0, pVar: -1, oVar: 1, pConst: true, unknown: true}
		if _, ok := unknown.orderedAs([]int{compS}); ok {
			t.Fatalf("trial %d: orderedAs served an unknown constant", trial)
		}
		other := randomFragment(r, r.Intn(2*radixMin), trial%2 == 0)
		merged, rebuilt := mergeStores(st, newStore(other)), newStore(append(slices.Clone(ts), other...))
		if !slices.Equal(merged.spo, rebuilt.spo) || !slices.Equal(merged.pos, rebuilt.pos) || !slices.Equal(merged.osp, rebuilt.osp) || !slices.Equal(merged.pso, rebuilt.pso) {
			t.Fatalf("trial %d: merging two stores differs from building their union", trial)
		}
	}
}

// orderings returns every ordered selection of the elements of set,
// the empty one included.
func orderings(set []int) [][]int {
	out := [][]int{{}}
	for i, x := range set {
		rest := slices.Delete(slices.Clone(set), i, i+1)
		for _, tail := range orderings(rest) {
			out = append(out, append([]int{x}, tail...))
		}
	}
	return out
}

func sortedTriples(ts []rdf.Triple) []rdf.Triple {
	out := slices.Clone(ts)
	slices.SortFunc(out, permSPO.cmp)
	return out
}
