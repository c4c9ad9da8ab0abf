package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

func buildDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	// 3 people work for 2 orgs; orgs have names.
	ds.Add("alice", "worksFor", "acme")
	ds.Add("bob", "worksFor", "acme")
	ds.Add("carol", "worksFor", "globex")
	ds.Add("acme", "name", "n1")
	ds.Add("globex", "name", "n2")
	return ds
}

func TestCollectExact(t *testing.T) {
	ds := buildDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?x <worksFor> ?y . ?y <name> ?n . }`)
	s, err := Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	p0 := s.Patterns[0]
	if p0.Card != 3 {
		t.Errorf("|tp0| = %v, want 3", p0.Card)
	}
	if p0.Bindings["x"] != 3 || p0.Bindings["y"] != 2 {
		t.Errorf("tp0 bindings = %v", p0.Bindings)
	}
	p1 := s.Patterns[1]
	if p1.Card != 2 || p1.Bindings["y"] != 2 || p1.Bindings["n"] != 2 {
		t.Errorf("tp1 = %+v", p1)
	}
}

func TestCollectConstantSubject(t *testing.T) {
	ds := buildDataset()
	q := sparql.MustParse(`SELECT * WHERE { <alice> <worksFor> ?y . }`)
	s, err := Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Patterns[0].Card != 1 || s.Patterns[0].Bindings["y"] != 1 {
		t.Errorf("stats = %+v", s.Patterns[0])
	}
}

func TestCollectUnknownConstant(t *testing.T) {
	ds := buildDataset()
	q := sparql.MustParse(`SELECT * WHERE { <nobody> <worksFor> ?y . }`)
	s, err := Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Patterns[0].Card != 0 {
		t.Errorf("unknown constant should yield 0 matches, got %v", s.Patterns[0].Card)
	}
	if s.Patterns[0].Bindings["y"] != 1 {
		t.Errorf("binding floor should be 1, got %v", s.Patterns[0].Bindings["y"])
	}
}

func TestCollectVariablePredicate(t *testing.T) {
	ds := buildDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?x ?p ?y . }`)
	s, err := Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if s.Patterns[0].Card != 5 {
		t.Errorf("|?x ?p ?y| = %v, want 5", s.Patterns[0].Card)
	}
	if s.Patterns[0].Bindings["p"] != 2 {
		t.Errorf("B(tp, p) = %v, want 2", s.Patterns[0].Bindings["p"])
	}
}

func newEstimator(t *testing.T, q *sparql.Query, cards []float64, bindings []map[string]float64) *Estimator {
	t.Helper()
	s := &Stats{}
	for i := range cards {
		s.Patterns = append(s.Patterns, PatternStats{Card: cards[i], Bindings: bindings[i]})
	}
	e, err := NewEstimator(q, s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEquation10(t *testing.T) {
	// |tp1 ⋈ tp2| = |tp1|·|tp2| / max(B(tp1,y), B(tp2,y))
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . }`)
	e := newEstimator(t, q,
		[]float64{100, 50},
		[]map[string]float64{
			{"x": 100, "y": 20},
			{"y": 10, "z": 50},
		})
	got := e.Cardinality(bitset.Of(0, 1))
	want := 100.0 * 50.0 / 20.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cardinality = %v, want %v", got, want)
	}
	// Shared variable binding after join = min of the two sides.
	if b := e.Bindings(bitset.Of(0, 1), "y"); b != 10 {
		t.Errorf("B(join, y) = %v, want 10", b)
	}
}

func TestMultiSharedVariables(t *testing.T) {
	// Two patterns sharing two variables: denominators multiply.
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?x <q> ?y . }`)
	e := newEstimator(t, q,
		[]float64{60, 40},
		[]map[string]float64{
			{"x": 6, "y": 10},
			{"x": 4, "y": 5},
		})
	got := e.Cardinality(bitset.Of(0, 1))
	want := 60.0 * 40.0 / (6.0 * 10.0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cardinality = %v, want %v", got, want)
	}
}

func TestCrossProductFold(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?a <q> ?b . }`)
	e := newEstimator(t, q,
		[]float64{10, 20},
		[]map[string]float64{{"x": 10, "y": 10}, {"a": 20, "b": 20}})
	if got := e.Cardinality(bitset.Of(0, 1)); got != 200 {
		t.Errorf("cross product = %v, want 200", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . }`)
	e := newEstimator(t, q, []float64{42}, []map[string]float64{{"x": 42, "y": 7}})
	if e.Cardinality(0) != 1 {
		t.Error("empty set cardinality should be 1")
	}
	if e.Cardinality(bitset.Of(0)) != 42 {
		t.Error("singleton cardinality wrong")
	}
	if e.Bindings(bitset.Of(0), "y") != 7 {
		t.Error("singleton bindings wrong")
	}
	if e.Bindings(bitset.Of(0), "zz") != 1 {
		t.Error("missing variable should report 1")
	}
}

func TestBindingsCappedByCardinality(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . }`)
	e := newEstimator(t, q,
		[]float64{10, 10},
		[]map[string]float64{
			{"x": 10, "y": 10},
			{"y": 10, "z": 1000},
		})
	// |join| = 10*10/10 = 10; B(join, z) must be capped at 10.
	if b := e.Bindings(bitset.Of(0, 1), "z"); b != 10 {
		t.Errorf("B(join, z) = %v, want 10 (capped)", b)
	}
}

func TestNewEstimatorMismatch(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . }`)
	if _, err := NewEstimator(q, &Stats{Patterns: make([]PatternStats, 1)}); err == nil {
		t.Error("mismatched stats accepted")
	}
}

// Property: cardinality estimates are non-negative and monotone under
// memoization (repeat calls agree).
func TestQuickEstimatorStable(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?a . }`)
	f := func(seed uint32) bool {
		cards := make([]float64, 4)
		binds := make([]map[string]float64, 4)
		r := seed
		next := func(mod uint32) float64 {
			r = r*1664525 + 1013904223
			return float64(r%mod + 1)
		}
		vars := [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}
		for i := range cards {
			cards[i] = next(1000)
			binds[i] = map[string]float64{}
			for _, v := range vars[i] {
				binds[i][v] = next(uint32(cards[i]))
			}
		}
		s := &Stats{}
		for i := range cards {
			s.Patterns = append(s.Patterns, PatternStats{Card: cards[i], Bindings: binds[i]})
		}
		e, err := NewEstimator(q, s)
		if err != nil {
			return false
		}
		full := bitset.Full(4)
		c1 := e.Cardinality(full)
		c2 := e.Cardinality(full)
		if c1 != c2 || c1 < 0 || math.IsNaN(c1) || math.IsInf(c1, 0) {
			return false
		}
		// Every subset estimate must be finite and non-negative too.
		ok := true
		full.Subsets(func(sub bitset.TPSet) bool {
			c := e.Cardinality(sub)
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// oracleEntry is an estimate of the map-based estimator this package
// had before binding counts became dense vectors, plus the most
// variables any one of its folds shared.
type oracleEntry struct {
	card      float64
	bindings  map[string]float64
	maxShared int
}

// oracleEstimate is that estimator, kept as the oracle: string-keyed
// maps, every set folded from scratch in pattern-index order, and the
// shared-variable denominator multiplied in map order.
func oracleEstimate(s *Stats, set bitset.TPSet) oracleEntry {
	if set.IsEmpty() {
		return oracleEntry{card: 1}
	}
	base := func(i int) oracleEntry {
		ps := s.Patterns[i]
		b := make(map[string]float64, len(ps.Bindings))
		for v, n := range ps.Bindings {
			b[v] = n
		}
		return oracleEntry{card: ps.Card, bindings: b}
	}
	first := set.Min()
	cur := base(first)
	set.Each(func(i int) bool {
		if i == first {
			return true
		}
		r := base(i)
		denom, shared := 1.0, 0
		for v, lb := range cur.bindings {
			rb, ok := r.bindings[v]
			if !ok {
				continue
			}
			shared++
			m := lb
			if rb > m {
				m = rb
			}
			if m < 1 {
				m = 1
			}
			denom *= m
		}
		card := cur.card * r.card / denom
		out := oracleEntry{card: card, bindings: map[string]float64{}, maxShared: cur.maxShared}
		if shared > out.maxShared {
			out.maxShared = shared
		}
		for v, lb := range cur.bindings {
			b := lb
			if rb, ok := r.bindings[v]; ok && rb < b {
				b = rb
			}
			out.bindings[v] = capBinding(b, card)
		}
		for v, rb := range r.bindings {
			if _, ok := cur.bindings[v]; !ok {
				out.bindings[v] = capBinding(rb, card)
			}
		}
		cur = out
		return true
	})
	return cur
}

// ulps is the distance between a and b in units in the last place.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestEstimatorOracle holds the dense prefix fold to the map-based
// oracle. Where no fold shares three or more variables the two
// multiply the same factors in the same order, so every estimate must
// be bit-identical. Where one does, the oracle's denominator product
// runs in map order and the estimator's in variable-index order, and
// the rounding of a reordered product, compounded over later folds,
// moves the result by a few ulps (five at most over 3 000 random stat
// sets of the six-pattern query below), so those are held to 1e-13
// relative.
func TestEstimatorOracle(t *testing.T) {
	check := func(t *testing.T, name string, q *sparql.Query, st *Stats) {
		t.Helper()
		e, err := NewEstimator(q, st)
		if err != nil {
			t.Fatal(err)
		}
		bitset.Full(len(q.Patterns)).Subsets(func(sub bitset.TPSet) bool {
			want := oracleEstimate(st, sub)
			got := e.Cardinality(sub)
			if want.maxShared < 3 {
				if got != want.card {
					t.Fatalf("%s %v: card %v, oracle %v", name, sub, got, want.card)
				}
				for v, b := range want.bindings {
					if sub.Len() == 1 {
						b = math.Max(b, 1) // a pattern's own counts read floored
					}
					if g := e.Bindings(sub, v); g != b {
						t.Fatalf("%s %v: B(%s) = %v, oracle %v", name, sub, v, g, b)
					}
				}
			} else if math.Abs(got-want.card) > 1e-13*math.Abs(want.card) {
				t.Fatalf("%s %v: card %v, oracle %v (%d ulps)", name, sub, got, want.card, ulps(got, want.card))
			}
			return true
		})
	}
	r := rand.New(rand.NewSource(26))
	// Random queries with integral statistics, as Collect produces:
	// 4–10 patterns over a small variable pool, so folds share zero to
	// three variables, with |tp| in [1, 1000] and B(tp, v) in [0, |tp|]
	// (hand-built statistics may hold a count Collect never reports).
	for trial := 0; trial < 200; trial++ {
		n := 4 + r.Intn(7)
		pool := 2 + r.Intn(n)
		term := func() string { return fmt.Sprintf("?v%d", r.Intn(pool)) }
		var text strings.Builder
		text.WriteString("SELECT * WHERE {")
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("<p%d>", i)
			if r.Intn(4) == 0 {
				p = term()
			}
			fmt.Fprintf(&text, " %s %s %s .", term(), p, term())
		}
		text.WriteString(" }")
		q := sparql.MustParse(text.String())
		st := &Stats{}
		for _, tp := range q.Patterns {
			card := 1 + r.Intn(1000)
			b := map[string]float64{}
			for _, v := range tp.Vars() {
				b[v] = float64(r.Intn(card + 1))
			}
			st.Patterns = append(st.Patterns, PatternStats{Card: float64(card), Bindings: b})
		}
		check(t, text.String(), q, st)
	}
	// Fractional binding counts, as capped intermediate bindings are,
	// on a query whose folds share up to four variables.
	q := sparql.MustParse(`SELECT * WHERE { ?s <p> ?o . ?o <q> ?x . ?x ?p ?s . ?s ?p ?o . ?x ?p ?o . ?s <r> ?x . }`)
	for trial := 0; trial < 200; trial++ {
		st := &Stats{}
		for _, tp := range q.Patterns {
			card := 1 + r.Float64()*1000
			b := map[string]float64{}
			for _, v := range tp.Vars() {
				b[v] = 1 + r.Float64()*card
			}
			st.Patterns = append(st.Patterns, PatternStats{Card: card, Bindings: b})
		}
		check(t, fmt.Sprintf("fractional-%d", trial), q, st)
	}
}

// TestEstimatorIndependentOfMapOrder: the last fold of this query
// shares three variables (?s, ?p, ?o), and the product of their
// binding counts rounds differently in different orders. The map-based
// estimator multiplied them in map-iteration order, so two estimators
// built from the same statistics could disagree in the last bit, and a
// plan tie with them. Every fresh estimator must now agree exactly.
func TestEstimatorIndependentOfMapOrder(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?s <p> ?o . ?o <q> ?x . ?x ?p ?s . ?s ?p ?o . }`)
	st := &Stats{Patterns: []PatternStats{
		{Card: 100, Bindings: map[string]float64{"s": 1.5, "o": 1.5}},
		{Card: 100, Bindings: map[string]float64{"o": 1.5, "x": 1.5}},
		{Card: 100, Bindings: map[string]float64{"x": 1.5, "p": 1.5, "s": 1.5}},
		{Card: 50, Bindings: map[string]float64{"s": 3.3, "p": 1.9, "o": 9.7}},
	}}
	all := bitset.Full(len(q.Patterns))
	want := make(map[bitset.TPSet]float64)
	for i := 0; i < 200; i++ {
		e, err := NewEstimator(q, st)
		if err != nil {
			t.Fatal(err)
		}
		all.Subsets(func(sub bitset.TPSet) bool {
			got := e.Cardinality(sub)
			if i == 0 {
				want[sub] = got
			} else if math.Float64bits(got) != math.Float64bits(want[sub]) {
				t.Fatalf("estimator %d: |%v| = %v, first estimator %v", i, sub, got, want[sub])
			}
			return true
		})
	}
}

// TestEstimatorConcurrent: workers sharing one estimator, as the
// parallel enumerator's do, each asking for every subset in its own
// order, read exactly what a sequential estimator computes.
func TestEstimatorConcurrent(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?s <p> ?o . ?o <q> ?x . ?x ?p ?s . ?s ?p ?o . ?x <r> ?y . ?y <s> ?s . ?o <t> ?y . }`)
	r := rand.New(rand.NewSource(7))
	st := &Stats{}
	for _, tp := range q.Patterns {
		card := 1 + r.Float64()*1000
		b := map[string]float64{}
		for _, v := range tp.Vars() {
			b[v] = 1 + r.Float64()*card
		}
		st.Patterns = append(st.Patterns, PatternStats{Card: card, Bindings: b})
	}
	all := bitset.Full(len(q.Patterns))
	var subsets []bitset.TPSet
	all.Subsets(func(sub bitset.TPSet) bool {
		subsets = append(subsets, sub)
		return true
	})
	seq, err := NewEstimator(q, st)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewEstimator(q, st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(subsets)) {
				sub := subsets[i]
				if got, want := shared.Cardinality(sub), seq.Cardinality(sub); got != want {
					t.Errorf("|%v| = %v concurrently, %v sequentially", sub, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
