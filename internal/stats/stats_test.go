package stats

import (
	"math"
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

func TestRemap(t *testing.T) {
	ds := buildDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?p <worksFor> ?c . ?c <name> ?n . }`)
	s, err := Collect(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Remap([]int{1, 0}, map[string]string{"p": "a", "c": "b", "n": "d"})
	if out.Epoch != s.Epoch {
		t.Errorf("epoch %d, want %d", out.Epoch, s.Epoch)
	}
	if out.Patterns[0].Card != s.Patterns[1].Card || out.Patterns[1].Card != s.Patterns[0].Card {
		t.Errorf("cards not permuted: %+v vs %+v", out.Patterns, s.Patterns)
	}
	// Pattern 0 of the remapped stats is the old pattern 1 (?c name ?n),
	// so it must carry renamed bindings for b and d.
	if out.Patterns[0].Bindings["b"] != s.Patterns[1].Bindings["c"] {
		t.Errorf("binding b = %v, want %v", out.Patterns[0].Bindings["b"], s.Patterns[1].Bindings["c"])
	}
	if out.Patterns[0].Bindings["d"] != s.Patterns[1].Bindings["n"] {
		t.Errorf("binding d = %v, want %v", out.Patterns[0].Bindings["d"], s.Patterns[1].Bindings["n"])
	}
	if _, ok := out.Patterns[0].Bindings["c"]; ok {
		t.Error("unrenamed binding key leaked through Remap")
	}
	// The source stats are untouched.
	if _, ok := s.Patterns[1].Bindings["c"]; !ok {
		t.Error("Remap mutated its receiver")
	}
}
