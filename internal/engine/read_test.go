package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/sparql"
)

// readFixture is a hand-built three-node snapshot: base fragments with
// replicated and single-copy triples, recovery overlays on nodes 0
// and 2, and two broadcast delta chunks. It respects the fragment-view
// invariant (base, overlay and delta pairwise disjoint per node).
type readFixture struct {
	dict    *rdf.Dict
	base    [][]rdf.Triple
	overlay [][]rdf.Triple
	delta   [][]rdf.Triple
}

func newReadFixture() *readFixture {
	d := rdf.NewDict()
	tr := func(s, p, o string) rdf.Triple {
		return rdf.Triple{S: d.Intern(s), P: d.Intern(p), O: d.Intern(o)}
	}
	a := tr("e0", "p", "e1") // replicated: nodes 0, 1 (+ overlay 2)
	b := tr("e1", "p", "e2") // single base copy on node 1 (+ overlay 0)
	c := tr("e2", "p", "e0") // replicated: nodes 0, 2
	l := tr("e3", "p", "e3") // self-loop, single copy on node 2: a hole when 2 dies
	e := tr("e0", "p", "e3") // replicated: nodes 1, 2
	f := tr("e4", "q", "e1") // other predicate, everywhere
	g := tr("e1", "p", "e1") // self-loop, replicated: nodes 0, 2
	return &readFixture{
		dict: d,
		base: [][]rdf.Triple{
			{a, c, f, g},
			{a, b, e, f},
			{c, l, e, f, g},
		},
		overlay: [][]rdf.Triple{{b}, nil, {a}},
		delta: [][]rdf.Triple{
			{tr("e5", "p", "e0"), tr("e4", "p", "e4")},
			{tr("e2", "p", "e5"), tr("e5", "q", "e5")},
		},
	}
}

func (fx *readFixture) snap() *Snap {
	s := &Snap{overlays: make([]*store, len(fx.base))}
	for _, ts := range fx.base {
		s.stores = append(s.stores, newStore(ts))
	}
	for i, ts := range fx.overlay {
		if ts != nil {
			s.overlays[i] = newStore(ts)
		}
	}
	for _, ts := range fx.delta {
		s.delta = append(s.delta, newStore(ts))
	}
	return s
}

// oracle is the brute-force fragment read: plain filters over the
// triple lists, no indexes.
type oracle struct {
	fx         *readFixture
	tp         sparql.TriplePattern
	vars       []string
	unknown    bool
	s, p, o    rdf.TermID
	sC, pC, oC bool
}

func newOracle(fx *readFixture, tp sparql.TriplePattern) *oracle {
	or := &oracle{fx: fx, tp: tp}
	bind := func(t sparql.Term, id *rdf.TermID, isConst *bool) {
		if t.IsVar() {
			for _, v := range or.vars {
				if v == t.Value {
					return
				}
			}
			or.vars = append(or.vars, t.Value)
			return
		}
		*isConst = true
		var ok bool
		if *id, ok = fx.dict.Lookup(t.Value); !ok {
			or.unknown = true
		}
	}
	bind(tp.S, &or.s, &or.sC)
	bind(tp.P, &or.p, &or.pC)
	bind(tp.O, &or.o, &or.oC)
	return or
}

// row binds t to the pattern's variables, nil when t does not match.
func (or *oracle) row(t rdf.Triple) []rdf.TermID {
	if or.unknown || or.sC && t.S != or.s || or.pC && t.P != or.p || or.oC && t.O != or.o {
		return nil
	}
	vals := map[string]rdf.TermID{}
	for _, pos := range []struct {
		term sparql.Term
		id   rdf.TermID
	}{{or.tp.S, t.S}, {or.tp.P, t.P}, {or.tp.O, t.O}} {
		if !pos.term.IsVar() {
			continue
		}
		if prev, ok := vals[pos.term.Value]; ok && prev != pos.id {
			return nil
		}
		vals[pos.term.Value] = pos.id
	}
	row := make([]rdf.TermID, len(or.vars))
	for i, v := range or.vars {
		row[i] = vals[v]
	}
	return row
}

// candidates is what an index scan of ts touches, in the order it
// emits: the triples agreeing with every constant — a repeated variable
// is checked after the index, not by it — sorted the way the permutation
// serving that constant combination is (SPO unless the predicate or the
// object leads: POS for P and PO, OSP for O and SO).
func (or *oracle) candidates(ts []rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range ts {
		if !or.unknown && (!or.sC || t.S == or.s) && (!or.pC || t.P == or.p) && (!or.oC || t.O == or.o) {
			out = append(out, t)
		}
	}
	key := func(t rdf.Triple) [3]rdf.TermID { return [3]rdf.TermID{t.S, t.P, t.O} }
	switch {
	case or.pC && !or.sC:
		key = func(t rdf.Triple) [3]rdf.TermID { return [3]rdf.TermID{t.P, t.O, t.S} }
	case or.oC && !or.pC:
		key = func(t rdf.Triple) [3]rdf.TermID { return [3]rdf.TermID{t.O, t.S, t.P} }
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := key(out[i]), key(out[j])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// bound is the oracle of the pattern with variable v fixed to id at
// every position it stands at — what a probe looks up for one row.
func (or *oracle) bound(v string, id rdf.TermID) *oracle {
	b := *or
	if or.tp.S.IsVar() && or.tp.S.Value == v {
		b.s, b.sC = id, true
	}
	if or.tp.P.IsVar() && or.tp.P.Value == v {
		b.p, b.pC = id, true
	}
	if or.tp.O.IsVar() && or.tp.O.Value == v {
		b.o, b.oC = id, true
	}
	return &b
}

func contains(ts []rdf.Triple, t rdf.Triple) bool {
	for _, u := range ts {
		if u == t {
			return true
		}
	}
	return false
}

// read is the expected fragment view of node: rows in emission order
// (base, then delta), postings touched on the node's base fragment,
// matching triples with no live copy in a base fragment or an overlay,
// and those whose only live copies are overlay ones.
func (or *oracle) read(node int, dead map[int]bool) (rows [][]rdf.TermID, scanned int64, missing, rescued int) {
	n := len(or.fx.base)
	cands := or.candidates(or.fx.base[node])
	scanned = int64(len(cands))
	for _, t := range cands {
		row := or.row(t)
		if row == nil {
			continue
		}
		if dead[node] {
			inBase, inOverlay := false, false
			for m := 0; m < n; m++ {
				if !dead[m] {
					inBase = inBase || contains(or.fx.base[m], t)
					inOverlay = inOverlay || contains(or.fx.overlay[m], t)
				}
			}
			if !inBase && !inOverlay {
				missing++
				continue
			}
			if !inBase {
				rescued++
			}
		}
		rows = append(rows, row)
	}
	for _, ts := range or.fx.delta {
		for _, t := range or.candidates(ts) {
			if row := or.row(t); row != nil {
				rows = append(rows, row)
			}
		}
	}
	return rows, scanned, missing, rescued
}

// TestDeterminismFragmentRead is the one oracle for the one reader:
// for every pattern shape × {healthy, one node dead, two nodes dead}
// over a snapshot with recovery overlays, the Scan operator's
// per-node rows (in order), ScannedTriples and — when a dead node's
// fragment has a hole — the typed error's Missing count must equal a
// brute-force filter over the fixture's triple lists. A healthy read
// never sees an overlay; a failover read counts its copies as live. It
// runs under the determinism gate (-race -count=2): the per-node reads
// are concurrent.
func TestDeterminismFragmentRead(t *testing.T) {
	fx := newReadFixture()
	snap := fx.snap()
	n := len(fx.base)
	eng := &Engine{dict: fx.dict, fo: &FailoverPolicy{}}
	eng.snap.Store(snap)
	patterns := []string{
		`?s <p> ?o`,
		`?s <p> <e1>`,
		`?x <p> ?x`,
		`?s ?pp ?o`,
		`?s <p> <nowhere>`,
	}
	deadSets := [][]int{nil}
	for i := 0; i < n; i++ {
		deadSets = append(deadSets, []int{i})
	}
	for i := 0; i < n; i++ {
		deadSets = append(deadSets, []int{i, (i + 1) % n})
	}
	var sawCovered, sawHole, sawRescued bool
	for _, src := range patterns {
		q := sparql.MustParse(`SELECT * WHERE { ` + src + ` . }`)
		tp := q.Patterns[0]
		or := newOracle(fx, tp)
		for _, deadList := range deadSets {
			id := fmt.Sprintf("%s/dead=%v", src, deadList)
			dead := map[int]bool{}
			fo := &failoverState{}
			for _, d := range deadList {
				dead[d] = true
				fo.markDead(d, "scan")
			}
			wantRows := make([][][]rdf.TermID, n)
			var wantScanned int64
			wantMissing, rescued := 0, 0
			for node := 0; node < n; node++ {
				rows, scanned, missing, r := or.read(node, dead)
				rescued += r
				wantRows[node] = rows
				wantScanned += scanned
				if wantMissing == 0 {
					// The lowest-numbered failing node's error wins.
					wantMissing = missing
				}
			}
			for _, ts := range fx.delta {
				wantScanned += int64(len(or.candidates(ts)))
			}

			var m Metrics
			env := ExecEnv{Snap: snap, fo: fo}
			p := plan.NewScan(0, 1, cost.Default)
			out, _, tr, err := eng.eval(context.Background(), p, q, env, &m, false, nil)
			if wantMissing > 0 {
				sawHole = true
				var ue *resilience.UnavailableError
				if !errors.As(err, &ue) {
					t.Errorf("%s: err = %v, want *UnavailableError", id, err)
					continue
				}
				if ue.Missing != wantMissing || ue.Op != "scan" || !reflect.DeepEqual(ue.Nodes, fo.deadNodes()) {
					t.Errorf("%s: error %+v, want Missing=%d Op=scan Nodes=%v", id, ue, wantMissing, fo.deadNodes())
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", id, err)
				continue
			}
			for node := 0; node < n; node++ {
				got := out[node].Rows
				if len(got) != len(wantRows[node]) {
					t.Errorf("%s: node %d has %d rows %v, want %d %v", id, node, len(got), got, len(wantRows[node]), wantRows[node])
					continue
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], wantRows[node][i]) {
						t.Errorf("%s: node %d row %d = %v, want %v", id, node, i, got[i], wantRows[node][i])
					}
				}
			}
			if m.ScannedTriples != wantScanned {
				t.Errorf("%s: ScannedTriples = %d, want %d", id, m.ScannedTriples, wantScanned)
			}
			if failovers, _ := fo.summary(); failovers != int64(len(deadList)) {
				t.Errorf("%s: %d failovers recorded, want %d", id, failovers, len(deadList))
			}
			if len(deadList) > 0 && tr.OutputRows > 0 {
				sawCovered = true
			}
			sawRescued = sawRescued || rescued > 0
		}
	}
	if !sawCovered || !sawHole || !sawRescued {
		t.Errorf("table degenerate: covered=%v hole=%v overlay-covered=%v — the fixture no longer reaches every failover outcome", sawCovered, sawHole, sawRescued)
	}
}

// TestDeterminismScanDeadSet: deaths a scan discovers itself — faults
// firing on nodes 0 and 2 at the scan's own gate, one attempt each, no
// dead set marked beforehand — must all be known before any failover
// read checks coverage. Node 0 then misses the two triples whose only
// other copy is on node 2, and that error (the lowest-numbered node's)
// is the one returned, on every run and for lazy and eager leaves alike.
// Reading node 0 while node 2 was not yet known dead would find those
// triples covered and report node 2's hole instead.
func TestDeterminismScanDeadSet(t *testing.T) {
	fx := newReadFixture()
	snap := fx.snap()
	n := len(fx.base)
	eng := &Engine{dict: fx.dict, fo: &FailoverPolicy{MaxAttempts: 1}}
	eng.snap.Store(snap)
	q := sparql.MustParse(`SELECT * WHERE { ?s <p> ?o . }`)
	or := newOracle(fx, q.Patterns[0])
	dead := map[int]bool{0: true, 2: true}
	wantMissing := 0
	for node := 0; node < n && wantMissing == 0; node++ {
		_, _, wantMissing, _ = or.read(node, dead)
	}
	if wantMissing == 0 {
		t.Fatal("fixture degenerate: nodes 0 and 2 dead leaves no hole")
	}
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for run := 0; run < runs; run++ {
		for _, lazy := range []bool{false, true} {
			faults := faultinject.New(int64(run))
			faults.Arm(faultinject.NodeScan(0), 1)
			faults.Arm(faultinject.NodeScan(2), 1)
			env := ExecEnv{Snap: snap, Faults: faults, fo: &failoverState{}}
			var m Metrics
			_, _, _, err := eng.eval(context.Background(), plan.NewScan(0, 1, cost.Default), q, env, &m, lazy, nil)
			var ue *resilience.UnavailableError
			if !errors.As(err, &ue) {
				t.Fatalf("run %d lazy=%v: err = %v, want *UnavailableError", run, lazy, err)
			}
			if ue.Missing != wantMissing || ue.Op != "scan" || !reflect.DeepEqual(ue.Nodes, []int{0, 2}) {
				t.Fatalf("run %d lazy=%v: error %+v, want Missing=%d Op=scan Nodes=[0 2]", run, lazy, ue, wantMissing)
			}
		}
	}
}

// TestDeterminismFragmentProbe is the same oracle for a leaf joined
// with rows in hand: for every pattern shape × each of its variables as
// the join variable × {healthy, one node dead, two nodes dead} × rows in
// hand unsorted (they drive, each row looking its binding up in the
// leaf) or sorted on the binding (the two leapfrog), a lazily opened
// leaf trie-joined with a set of bindings — every term of the fixture,
// one of them twice — must return, per node, exactly the rows a
// brute-force filter of the node's read keeps for those bindings
// (overlays stay invisible, both delta chunks are seen). A leaf walked
// through its ranges counts as postings exactly the entries whose
// binding is in hand, once per key group however many rows look it up;
// a leaf the join reads counts its read, and one read when it was
// opened (a dead node's failover read, a repeated variable) nothing
// more. Reading the leaf afterwards must join to the same rows.
func TestDeterminismFragmentProbe(t *testing.T) {
	fx := newReadFixture()
	snap := fx.snap()
	n := len(fx.base)
	eng := &Engine{dict: fx.dict, fo: &FailoverPolicy{}}
	eng.snap.Store(snap)
	ctx := context.Background()
	deadSets := [][]int{nil}
	for i := 0; i < n; i++ {
		deadSets = append(deadSets, []int{i}, []int{i, (i + 1) % n})
	}
	const tag = rdf.TermID(99)
	saw := map[string]bool{}
	for _, src := range []string{`?s <p> ?o`, `?s <p> <e1>`, `?x <p> ?x`, `?s ?pp ?o`, `?s <p> <nowhere>`} {
		q := sparql.MustParse(`SELECT * WHERE { ` + src + ` . }`)
		or := newOracle(fx, q.Patterns[0])
		for _, v := range or.vars {
			// The rows in hand: (binding, tag), the tag proving that the
			// join carries the whole row through.
			cur := &Relation{Vars: []string{v, "tag"}}
			for id := 0; id <= fx.dict.Len(); id++ {
				cur.appendCopy([]rdf.TermID{rdf.TermID(id % fx.dict.Len()), tag})
			}
			sorted := &Relation{Vars: cur.Vars, sortedOn: v}
			sorted.Rows, sorted.keys = keyOrder(cur.Rows, 0)
			for _, hand := range []*Relation{cur, sorted} {
				for _, deadList := range deadSets {
					id := fmt.Sprintf("%s/bind=%s/sorted=%v/dead=%v", src, v, hand == sorted, deadList)
					dead := map[int]bool{}
					fo := &failoverState{}
					for _, d := range deadList {
						dead[d] = true
						fo.markDead(d, "scan")
					}
					var m Metrics
					env := ExecEnv{Snap: snap, fo: fo}
					_, leaf, _, err := eng.eval(ctx, plan.NewScan(0, 1, cost.Default), q, env, &m, true, nil)
					hole := false
					for node := 0; node < n; node++ {
						if _, _, missing, _ := or.read(node, dead); missing > 0 {
							hole = true
						}
					}
					if hole {
						var ue *resilience.UnavailableError
						if !errors.As(err, &ue) {
							t.Errorf("%s: err = %v, want *UnavailableError", id, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v", id, err)
						continue
					}
					join := newSortedJoin([][]string{hand.Vars, leaf.bp.vars}, []int64{int64(len(hand.Rows)), int64(len(cur.Rows))}, []*scanLeaf{nil, leaf}, []string{v})
					ranged, merged := join.inputs[1].ranges, false
					var deltaPostings int64
					for _, ts := range fx.delta {
						deltaPostings += int64(len(or.candidates(ts)))
					}
					for node := 0; node < n; node++ {
						rows, read, _, _ := or.read(node, dead)
						wantRows := &Relation{Vars: or.vars, Rows: rows}
						want, err := hashJoin(ctx, hand, wantRows)
						if err != nil {
							t.Fatal(err)
						}
						var wantPostings int64
						wasRead := leaf.rels[node] != nil
						switch {
						case wasRead:
						case ranged:
							for _, crow := range cur.Rows[:fx.dict.Len()] { // each key group once
								b := or.bound(v, crow[0])
								wantPostings += int64(len(b.candidates(fx.base[node])))
								for _, ts := range fx.delta {
									wantPostings += int64(len(b.candidates(ts)))
								}
							}
							merged = merged || leaf.size[node] > 0
						default:
							wantPostings = read // and the delta's, on the leaf's first read
						}
						before := leaf.scanned.Load()
						got, err := join.join(ctx, nil, "local join", node, []*Relation{hand, leaf.rels[node]})
						if err != nil {
							t.Errorf("%s: node %d: %v", id, node, err)
							continue
						}
						postings := leaf.scanned.Load() - before
						if postings != wantPostings && (wasRead || ranged || postings != wantPostings+deltaPostings) {
							t.Errorf("%s: node %d touched %d postings, want %d", id, node, postings, wantPostings)
						}
						if !slices.Equal(got.Vars, append([]string{v, "tag"}, slices.DeleteFunc(slices.Clone(or.vars), func(u string) bool { return u == v })...)) ||
							!slices.Equal(canonRows(got), canonRows(want)) {
							t.Errorf("%s: node %d joined to %v %v, want %v", id, node, got.Vars, got.Rows, want.Rows)
						}
						saw["hit"] = saw["hit"] || len(want.Rows) > 0
						saw["ranged"] = saw["ranged"] || ranged && !dead[node]
						saw["read"] = saw["read"] || !ranged || dead[node]
						saw["failover"] = saw["failover"] || ranged && dead[node] && len(want.Rows) > 0
						if dead[node] {
							continue
						}
						rel, err := leaf.read(node)
						if err != nil {
							t.Errorf("%s: node %d: %v", id, node, err)
							continue
						}
						folded, err := hashJoin(ctx, hand, rel)
						if err != nil {
							t.Errorf("%s: node %d: %v", id, node, err)
							continue
						}
						if !slices.Equal(canonRows(folded), canonRows(got)) {
							t.Errorf("%s: node %d read joins to %v, the trie join to %v", id, node, folded.Rows, got.Rows)
						}
					}
					leaf.settle(&m)
					if leaf.tr.Merged != merged || leaf.tr.Postings != m.ScannedTriples {
						t.Errorf("%s: settled trace %+v, metrics %+v", id, leaf.tr, m)
					}
				}
			}
		}
	}
	for _, what := range []string{"hit", "ranged", "read", "failover"} {
		if !saw[what] {
			t.Errorf("table degenerate: no case %s", what)
		}
	}
}

func varsAt(vars []string, cols []int) []string {
	var out []string
	for _, c := range cols {
		out = append(out, vars[c])
	}
	return out
}

// randomMergeFixture draws a three-node snapshot over six entities and
// two predicates: base fragments holding every triple on two or three
// nodes (so one death is always covered and two may leave a hole), and
// deltas delta chunks of triples new to the whole dataset.
func randomMergeFixture(r *rand.Rand, deltas int) *readFixture {
	d := rdf.NewDict()
	var ents, preds []rdf.TermID
	for i := 0; i < 6; i++ {
		ents = append(ents, d.Intern(fmt.Sprintf("e%d", i)))
	}
	preds = append(preds, d.Intern("p"), d.Intern("q"))
	var universe []rdf.Triple
	for _, s := range ents {
		for _, p := range preds {
			for _, o := range ents {
				universe = append(universe, rdf.Triple{S: s, P: p, O: o})
			}
		}
	}
	r.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	const nodes = 3
	fx := &readFixture{dict: d, base: make([][]rdf.Triple, nodes), overlay: make([][]rdf.Triple, nodes)}
	next := 0
	for ; next < 30+r.Intn(20); next++ {
		t := universe[next]
		skip := -1 // the node without a copy; -1 puts one on every node
		if r.Intn(3) > 0 {
			skip = r.Intn(nodes)
		}
		for node := 0; node < nodes; node++ {
			if node != skip {
				fx.base[node] = append(fx.base[node], t)
			}
		}
	}
	for c := 0; c < deltas; c++ {
		size := 1 + r.Intn(6)
		fx.delta = append(fx.delta, universe[next:next+size])
		next += size
	}
	return fx
}

// TestDeterminismFragmentMerge is the oracle for a local join over
// lazily opened leaves. Over random fragments with 0–3 delta chunks, for
// every pair of pattern shapes — each orderable shape with ?x at the
// subject and at the object, the fall-backs (<s> ?p ?x, a repeated
// variable, an unknown constant), pairs sharing a second variable and a
// three-leaf triangle — × {healthy, every single and double dead set}:
// a leaf must be walked through its ranges exactly when its permutation
// orders it on the join's variables and no read failed over on the
// node, and each node must return the multiset the test-only hash fold
// over the node's reads returns. A walked leaf's postings must be
// exactly its candidates whose values of the ordered variables occur
// together in the node's result, also when a read input drives; a read
// leaf's no more than its read.
// The whole operator run through eval returns the same rows.
func TestDeterminismFragmentMerge(t *testing.T) {
	orderable := []string{
		`?x <p> ?a%d`, `?x <p> <e1>`, `?x ?pa%d <e2>`, `?x ?pa%d ?a%d`,
		`<e1> <p> ?x`, `?a%d <q> ?x`, `?a%d ?pa%d ?x`,
	}
	fallback := []string{`<e1> ?pa%d ?x`, `?x <p> ?x`, `?x <q> <nowhere>`}
	shape := func(src string, tag int) string {
		return strings.ReplaceAll(src, "%d", fmt.Sprint(tag))
	}
	type star struct {
		src    string
		ranged []bool // per leaf, when the pair shares ?x alone
	}
	var stars []star
	all := append(append([]string{}, orderable...), fallback...)
	for i, a := range all {
		for j, b := range all {
			stars = append(stars, star{shape(a, 1) + ` . ` + shape(b, 2), []bool{i < len(orderable), j < len(orderable)}})
		}
	}
	stars = append(stars,
		star{`?x <p> ?y . ?y <q> ?x`, nil},
		star{`?x <p> ?y . ?x <q> ?y`, nil},
		star{`?x ?pa ?y . ?y <p> ?x . ?x <q> ?z`, nil},
		star{`?x <p> ?a1 . ?x <q> ?a2 . ?a3 <p> ?x`, nil},
	)
	ctx := context.Background()
	r := rand.New(rand.NewSource(30))
	saw := map[string]bool{}
	for round := 0; round < 8; round++ {
		fx := randomMergeFixture(r, round%4)
		snap := fx.snap()
		n := len(fx.base)
		eng := &Engine{dict: fx.dict, fo: &FailoverPolicy{}}
		eng.snap.Store(snap)
		deadSets := [][]int{nil}
		for i := 0; i < n; i++ {
			deadSets = append(deadSets, []int{i}, []int{i, (i + 1) % n})
		}
		for _, st := range stars {
			q := sparql.MustParse(`SELECT * WHERE { ` + st.src + ` . }`)
			ors := make([]*oracle, len(q.Patterns))
			for i, tp := range q.Patterns {
				ors[i] = newOracle(fx, tp)
			}
			for _, deadList := range deadSets {
				id := fmt.Sprintf("round %d: %s/dead=%v", round, st.src, deadList)
				dead := map[int]bool{}
				markDead := func() *failoverState {
					fo := &failoverState{}
					for _, d := range deadList {
						fo.markDead(d, "scan")
					}
					return fo
				}
				for _, d := range deadList {
					dead[d] = true
				}
				hole := false
				for _, or := range ors {
					for node := 0; node < n; node++ {
						if _, _, missing, _ := or.read(node, dead); missing > 0 {
							hole = true
						}
					}
				}
				if hole {
					continue
				}
				env := ExecEnv{Snap: snap, fo: markDead()}
				var m Metrics
				leaves := make([]*scanLeaf, len(q.Patterns))
				vars := make([][]string, len(q.Patterns))
				sizes := make([]int64, len(q.Patterns))
				for i := range q.Patterns {
					_, leaf, tr, err := eng.eval(ctx, plan.NewScan(i, 1, cost.Default), q, env, &m, true, nil)
					if err != nil {
						t.Fatalf("%s: tp%d: %v", id, i+1, err)
					}
					leaves[i], vars[i], sizes[i] = leaf, leaf.bp.vars, tr.OutputRows
				}
				join := newSortedJoin(vars, sizes, leaves, joinOrder(vars, sizes))
				for i, want := range st.ranged {
					if join.inputs[i].ranges != want {
						t.Fatalf("%s: tp%d ranged = %v, want %v", id, i+1, join.inputs[i].ranges, want)
					}
				}
				want := make([][]string, n)
				merged := make([]bool, len(leaves))
				for node := 0; node < n; node++ {
					reads := make([]*Relation, len(ors))
					for i, or := range ors {
						rows, _, _, _ := or.read(node, dead)
						reads[i] = &Relation{Vars: or.vars, Rows: rows}
					}
					fold, err := hashFold(ctx, reads)
					if err != nil {
						t.Fatal(err)
					}
					want[node] = canonRows(fold)
					rels := make([]*Relation, len(leaves))
					before := make([]int64, len(leaves))
					for i, l := range leaves {
						rels[i], before[i] = l.rels[node], l.scanned.Load()
					}
					hit := join.rowsOn(node, rels) > 0
					got, err := join.join(ctx, nil, "local join", node, rels)
					if err != nil {
						t.Errorf("%s: node %d: %v", id, node, err)
						continue
					}
					if !slices.Equal(got.Vars, join.schema) || !slices.Equal(sortedVars(got.Vars), sortedVars(fold.Vars)) ||
						!slices.Equal(canonRows(got), want[node]) {
						t.Errorf("%s: node %d joined to %v %v, want %v %v", id, node, got.Vars, canonRows(got), fold.Vars, want[node])
					}
					for i, or := range ors {
						in := &join.inputs[i]
						postings := leaves[i].scanned.Load() - before[i]
						lists := append([][]rdf.Triple{fx.base[node]}, fx.delta...)
						if !in.ranges || rels[i] != nil {
							var read int64
							for _, ts := range lists {
								read += int64(len(or.candidates(ts)))
							}
							if postings > read {
								t.Errorf("%s: node %d read tp%d touching %d postings, more than its %d candidates", id, node, i+1, postings, read)
							}
							saw["read"] = saw["read"] || hit
							continue
						}
						// The candidates whose ordered values are a match's.
						matches := map[string]bool{}
						for _, row := range fold.Rows {
							matches[fmt.Sprint(project(row, fold.Vars, join.order, or.vars))] = true
						}
						var wantPostings int64
						for _, ts := range lists {
							for _, tr := range or.candidates(ts) {
								if matches[fmt.Sprint(project(or.row(tr), or.vars, join.order, or.vars))] {
									wantPostings++
								}
							}
						}
						if postings != wantPostings {
							t.Errorf("%s: node %d merged tp%d touching %d postings, want %d", id, node, i+1, postings, wantPostings)
						}
						merged[i] = merged[i] || hit
						saw["merged"] = saw["merged"] || hit
					}
					saw["hit"] = saw["hit"] || len(want[node]) > 0
					saw["delta"] = saw["delta"] || len(fx.delta) > 0 && len(want[node]) > 0
					saw["three leaves"] = saw["three leaves"] || len(q.Patterns) == 3 && len(want[node]) > 0
					saw["two levels"] = saw["two levels"] || len(join.order) > 1 && len(want[node]) > 0
				}

				// The operator end to end: the same rows per node, every leaf
				// marked merged exactly when some node walked its ranges.
				scans := make([]*plan.Node, len(q.Patterns))
				for i := range scans {
					scans[i] = plan.NewScan(i, 1, cost.Default)
				}
				var om Metrics
				oenv := ExecEnv{Snap: snap, fo: markDead()}
				out, _, tr, err := eng.eval(ctx, plan.NewJoin(plan.LocalJoin, "x", scans, 1, cost.Default), q, oenv, &om, true, nil)
				if err != nil {
					t.Errorf("%s: operator: %v", id, err)
					continue
				}
				var joined int64
				for node := 0; node < n; node++ {
					joined += int64(len(want[node]))
					if !slices.Equal(out[node].Vars, join.schema) || !slices.Equal(canonRows(out[node]), want[node]) {
						t.Errorf("%s: operator node %d produced %v %v, want %v", id, node, out[node].Vars, canonRows(out[node]), want[node])
					}
				}
				if om.JoinedRows != joined {
					t.Errorf("%s: operator JoinedRows = %d, want %d", id, om.JoinedRows, joined)
				}
				for i, ch := range tr.Children {
					if ch.Merged != merged[i] {
						t.Errorf("%s: tp%d trace Merged = %v, want %v", id, i+1, ch.Merged, merged[i])
					}
				}
			}
		}
	}
	for _, what := range []string{"merged", "read", "hit", "delta", "three leaves", "two levels"} {
		if !saw[what] {
			t.Errorf("table degenerate: no case with %s", what)
		}
	}
}

// hashFold is the test-only fold the trie join is held to, an algorithm
// independent of sortedJoin: hashJoin from the first input on, each time
// with the first input left that shares a variable with the rows in
// hand, or the first one left when none does.
func hashFold(ctx context.Context, rels []*Relation) (*Relation, error) {
	cur, left := rels[0], slices.Clone(rels[1:])
	for len(left) > 0 {
		next := max(0, slices.IndexFunc(left, func(r *Relation) bool { return len(sharedVars(cur, r)) > 0 }))
		var err error
		if cur, err = hashJoin(ctx, cur, left[next]); err != nil {
			return nil, err
		}
		left = slices.Delete(left, next, next+1)
	}
	return cur, nil
}

// canonRows prints rel's rows with the columns in name order, sorted,
// so that the rows of one variable set compare whatever the schema.
func canonRows(rel *Relation) []string {
	names := sortedVars(rel.Vars)
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i] = fmt.Sprint(project(row, rel.Vars, names, names))
	}
	sort.Strings(out)
	return out
}

// sortedVars returns a sorted copy of vars.
func sortedVars(vars []string) []string {
	out := slices.Clone(vars)
	slices.Sort(out)
	return out
}

// project returns row's values, under schema vars, of the variables of
// want that keep holds, in want's order.
func project(row []rdf.TermID, vars, want, keep []string) []rdf.TermID {
	var out []rdf.TermID
	for _, v := range want {
		if slices.Contains(keep, v) {
			out = append(out, row[slices.Index(vars, v)])
		}
	}
	return out
}

// foldOracle is the test-only fold of a broadcast or repartition join
// on ?x: every node's hashFold over the node's inputs, with the gathered
// inputs and the scatter buckets deduplicated by a set of printed rows
// and a broadcast's largest leaf left in place and read on every node.
type foldOracle struct {
	rows     [][]string // per node, canonRows
	schema   []string   // in name order
	postings int64
	joined   int64     // the rows the inputs' own joins produced
	largest  int       // a broadcast's in-place input
	leaf     *scanLeaf // the in-place input's leaf, when it is a scan
	dups     bool      // a gathered input held one row several times
}

func newFoldOracle(ctx context.Context, e *Engine, p *plan.Node, q *sparql.Query, env ExecEnv) (*foldOracle, error) {
	n := len(env.Snap.stores)
	k := len(p.Children)
	kids := make([][]*Relation, k)
	sizes := make([]int64, k)
	postings := make([]int64, k)
	var joined int64
	for i, c := range p.Children {
		var m Metrics
		rels, _, tr, err := e.eval(ctx, c, q, env, &m, false, nil)
		if err != nil {
			return nil, err
		}
		kids[i], sizes[i], postings[i] = rels, tr.OutputRows, m.ScannedTriples
		joined += m.JoinedRows
	}
	o := &foldOracle{rows: make([][]string, n), joined: joined}
	dedup := func(rows [][]rdf.TermID) [][]rdf.TermID {
		var out [][]rdf.TermID
		seen := map[string]bool{}
		for _, row := range rows {
			if key := fmt.Sprint(row); !seen[key] {
				seen[key] = true
				out = append(out, row)
			}
		}
		return out
	}
	inputs := make([][]*Relation, n) // [node][input]
	switch p.Alg {
	case plan.BroadcastJoin:
		for i := range sizes {
			if sizes[i] > sizes[o.largest] {
				o.largest = i
			}
		}
		var gathered []*Relation
		for i := range kids {
			if i == o.largest {
				continue
			}
			o.postings += postings[i]
			var all [][]rdf.TermID
			for _, r := range kids[i] {
				all = append(all, r.Rows...)
			}
			g := &Relation{Vars: kids[i][0].Vars, Rows: dedup(all)}
			o.dups = o.dups || len(g.Rows) < len(all)
			gathered = append(gathered, g)
		}
		o.postings += postings[o.largest]
		if p.Children[o.largest].Alg == plan.Scan {
			// Opened for its pattern only: the fold reads it in full.
			var m Metrics
			var err error
			if _, o.leaf, _, err = e.eval(ctx, p.Children[o.largest], q, env, &m, true, nil); err != nil {
				return nil, err
			}
		}
		for node := range inputs {
			inputs[node] = append([]*Relation{kids[o.largest][node]}, gathered...)
		}
	case plan.RepartitionJoin:
		for node := range inputs {
			inputs[node] = make([]*Relation, k)
		}
		for i := range kids {
			o.postings += postings[i]
			col := slices.Index(kids[i][0].Vars, "x")
			for node := range inputs {
				var bucket [][]rdf.TermID
				for _, r := range kids[i] {
					for _, row := range r.Rows {
						if int(row[col])%n == node {
							bucket = append(bucket, row)
						}
					}
				}
				inputs[node][i] = &Relation{Vars: kids[i][0].Vars, Rows: dedup(bucket)}
			}
		}
	}
	for node := range inputs {
		got, err := hashFold(ctx, inputs[node])
		if err != nil {
			return nil, err
		}
		o.rows[node], o.schema = canonRows(got), sortedVars(got.Vars)
	}
	return o, nil
}

// TestDeterminismBroadcastMerge is the oracle for the joins that move
// data. Over random fragments with 0–3 delta chunks — every triple on two
// or three nodes, so a gathered input holds rows several nodes shipped —
// it runs broadcast joins on ?x with k ∈ {2, 3} inputs whose largest is
// an orderable leaf, an unorderable one (<s> ?p ?x, a repeated
// variable), a local join merged on ?x (a relation in key order) or on
// another variable (out of it), and repartition joins on ?x; pairs of
// inputs share a second variable. Each case runs over the fragments as
// placed and again with recovery overlays that give every node a copy of
// each <p> triple, which failover reads count as live. For the healthy
// cluster and every single and double dead set, every node's
// rows must be the multiset the test-only hash fold over the same inputs
// returns over the same variables (see foldOracle), the postings no more
// than the fold's but for the delta chunks (a merge walks them on every
// node), and an orderable leaf left in place must be merged.
func TestDeterminismBroadcastMerge(t *testing.T) {
	scan := func(tp int) *plan.Node { return plan.NewScan(tp, 1, cost.Default) }
	join := func(alg plan.Algorithm, v string, children ...*plan.Node) *plan.Node {
		return plan.NewJoin(alg, v, children, 1, cost.Default)
	}
	bcast := func(children ...*plan.Node) *plan.Node { return join(plan.BroadcastJoin, "x", children...) }
	repart := func(children ...*plan.Node) *plan.Node { return join(plan.RepartitionJoin, "x", children...) }
	cases := []struct {
		src  string
		plan *plan.Node
	}{
		{`?x ?pa ?a1 . <e1> <p> ?x`, bcast(scan(0), scan(1))},
		{`?x ?pa ?a1 . <e1> <p> ?x . ?x <q> ?a2`, bcast(scan(0), scan(1), scan(2))},
		{`<e1> ?pa ?x . ?x <q> <e2>`, bcast(scan(0), scan(1))},
		{`?x ?pa ?x . <e1> <q> ?x`, bcast(scan(0), scan(1))},
		{`?x <p> ?a1 . ?x ?pa ?a2 . <e2> <q> ?x`, bcast(join(plan.LocalJoin, "x", scan(0), scan(1)), scan(2))},
		{`?x <p> ?a . ?a ?pa ?b . ?x <q> <e1>`, bcast(join(plan.LocalJoin, "a", scan(0), scan(1)), scan(2))},
		{`?x <p> ?y . ?y <q> ?x`, bcast(scan(0), scan(1))},
		{`?x ?pa ?a1 . ?x <p> ?y . ?y <q> ?x`, bcast(scan(0), scan(1), scan(2))},
		{`?x <p> ?a1 . ?x ?pa ?a2 . ?x <p> ?y . ?y <q> ?x`, bcast(join(plan.LocalJoin, "x", scan(0), scan(1)), scan(2), scan(3))},
		{`?x <p> ?a1 . ?a2 <q> ?x`, repart(scan(0), scan(1))},
		{`?x <p> ?y . ?y <q> ?x`, repart(scan(0), scan(1))},
		{`?x <p> ?a1 . ?x <q> ?a2 . ?a3 <p> ?x`, repart(scan(0), scan(1), scan(2))},
		{`?x <p> ?a1 . ?x ?pa ?a2 . ?a3 <q> ?x`, repart(join(plan.LocalJoin, "x", scan(0), scan(1)), scan(2))},
		{`?x ?pa ?a1 . <e1> <p> ?x`, repart(scan(0), scan(1))},
	}
	ctx := context.Background()
	r := rand.New(rand.NewSource(32))
	saw := map[string]bool{}
	for round := 0; round < 8; round++ {
		fx := randomMergeFixture(r, round%4)
		plain := fx.snap()
		n := len(fx.base)
		overlaid := *fx
		overlaid.overlay = make([][]rdf.Triple, n)
		pID, _ := fx.dict.Lookup("p")
		for node := range overlaid.overlay {
			for _, ts := range fx.base {
				for _, t := range ts {
					if t.P == pID && !contains(fx.base[node], t) && !contains(overlaid.overlay[node], t) {
						overlaid.overlay[node] = append(overlaid.overlay[node], t)
					}
				}
			}
		}
		deadSets := [][]int{nil}
		for i := 0; i < n; i++ {
			deadSets = append(deadSets, []int{i}, []int{i, (i + 1) % n})
		}
		for _, c := range cases {
			q := sparql.MustParse(`SELECT * WHERE { ` + c.src + ` . }`)
			unavailable := map[string]bool{} // dead sets the plain snapshot cannot serve
			for si, snap := range []*Snap{plain, overlaid.snap()} {
				eng := &Engine{dict: fx.dict, fo: &FailoverPolicy{}}
				eng.snap.Store(snap)
				for _, deadList := range deadSets {
					id := fmt.Sprintf("round %d: %v %s/overlaid=%v/dead=%v", round, c.plan.Alg, c.src, si > 0, deadList)
					markDead := func() *failoverState {
						fo := &failoverState{}
						for _, d := range deadList {
							fo.markDead(d, "scan")
						}
						return fo
					}
					want, oerr := newFoldOracle(ctx, eng, c.plan, q, ExecEnv{Snap: snap, fo: markDead()})
					var m Metrics
					out, _, tr, err := eng.eval(ctx, c.plan, q, ExecEnv{Snap: snap, fo: markDead()}, &m, false, nil)
					var ue *resilience.UnavailableError
					if errors.As(oerr, &ue) {
						if !errors.As(err, &ue) {
							t.Errorf("%s: err = %v, want *UnavailableError", id, err)
						}
						unavailable[fmt.Sprint(deadList)] = true
						continue
					}
					if oerr != nil || err != nil {
						t.Fatalf("%s: oracle: %v, join: %v", id, oerr, err)
					}
					saw["overlay-covered"] = saw["overlay-covered"] || si > 0 && unavailable[fmt.Sprint(deadList)]
					joined := want.joined
					for node := 0; node < n; node++ {
						joined += int64(len(want.rows[node]))
						if !slices.Equal(sortedVars(out[node].Vars), want.schema) || !slices.Equal(canonRows(out[node]), want.rows[node]) {
							t.Errorf("%s: node %d joined to %v %v, want %v %v", id, node, out[node].Vars, canonRows(out[node]), want.schema, want.rows[node])
						}
						saw["check"] = saw["check"] || strings.Contains(c.src, "?y <q> ?x") && len(want.rows[node]) > 0
					}
					if m.JoinedRows != joined {
						t.Errorf("%s: JoinedRows = %d, want %d", id, m.JoinedRows, joined)
					}
					// A merge walks the delta chunks' key groups on every node, where
					// a read matches the delta once per operator: on top of the
					// fold's postings it may touch the in-place leaf's delta
					// candidates once more per further node.
					bound := want.postings
					if l := want.leaf; l != nil {
						for _, st := range l.snap.delta {
							bound += int64((n - 1) * len(st.candidates(&l.bp)))
						}
					}
					if m.ScannedTriples > bound {
						t.Errorf("%s: the join touched %d postings, the hash fold %d (bound %d)", id, m.ScannedTriples, want.postings, bound)
					}
					saw["dups"] = saw["dups"] || want.dups
					if c.plan.Alg != plan.BroadcastJoin {
						continue
					}
					if l := want.leaf; l != nil {
						_, orderable := l.bp.orderedAs([]int{varComp(&l.bp, slices.Index(l.bp.vars, "x"))})
						if merged := tr.Children[want.largest].Merged; merged != (orderable && len(deadList) < n) {
							t.Errorf("%s: in-place leaf merged = %v, orderable %v", id, merged, orderable)
						}
						saw["ordered leaf"] = saw["ordered leaf"] || orderable
						saw["unordered leaf"] = saw["unordered leaf"] || !orderable && !l.bp.repeated
						saw["repeated leaf"] = saw["repeated leaf"] || l.bp.repeated
						saw["failover leaf"] = saw["failover leaf"] || orderable && len(deadList) > 0 && joined > want.joined
					} else {
						key := c.plan.Children[want.largest].JoinVar
						saw["relation on "+key] = true
					}
				}
			}
		}
	}
	for _, what := range []string{"check", "dups", "overlay-covered", "ordered leaf", "unordered leaf", "repeated leaf", "failover leaf", "relation on x", "relation on a"} {
		if !saw[what] {
			t.Errorf("table degenerate: no case with %s", what)
		}
	}
}
