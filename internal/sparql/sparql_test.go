package sparql

import (
	"errors"
	"slices"
	"testing"
)

func TestParseFigure1Query(t *testing.T) {
	// The running-example query of paper Fig. 1a.
	q, err := Parse(`
		SELECT * WHERE {
			?b <p1> ?a .
			?c <p2> ?a .
			?a <p3> ?e .
			?e <p4> ?g .
			?b <p5> ?f .
			?c <p6> ?d .
			?a <p7> ?d .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 7 {
		t.Fatalf("got %d patterns, want 7", len(q.Patterns))
	}
	vars := q.Vars()
	if len(vars) != 7 {
		t.Fatalf("vars = %v, want 7 distinct", vars)
	}
	if q.Patterns[0].S != V("b") || q.Patterns[0].P != I("p1") || q.Patterns[0].O != V("a") {
		t.Errorf("tp1 parsed wrong: %v", q.Patterns[0])
	}
}

func TestParsePrefixes(t *testing.T) {
	q, err := Parse(`
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		PREFIX ub: <http://lubm#>
		SELECT ?x WHERE {
			?x rdf:type ub:ResearchGroup .
			?x ub:subOrganizationOf <http://www.Department0.University0.edu> .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
	if q.Patterns[0].P.Value != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("prefix expansion failed: %q", q.Patterns[0].P.Value)
	}
	if q.Patterns[0].O.Value != "http://lubm#ResearchGroup" {
		t.Errorf("prefix expansion failed: %q", q.Patterns[0].O.Value)
	}
	if len(q.Select) != 1 || q.Select[0] != "x" {
		t.Errorf("Select = %v", q.Select)
	}
}

func TestParseRDFTypeShorthand(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x a <C> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Value != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' shorthand: %q", q.Patterns[0].P.Value)
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE {
		?x <p> "plain" .
		?x <q> "t"@en .
		?x <r> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
		?x <s> "esc\"aped" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`"plain"`, `"t"@en`, `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`, `"esc\"aped"`}
	for i, w := range want {
		if q.Patterns[i].O.Kind != Literal || q.Patterns[i].O.Value != w {
			t.Errorf("pattern %d object = %v, want %s", i, q.Patterns[i].O, w)
		}
	}
}

func TestParseMissingFinalDot(t *testing.T) {
	// The last pattern before '}' may omit the '.', as in common usage.
	q, err := Parse(`SELECT ?x WHERE { ?x <p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 1 {
		t.Fatalf("patterns = %d", len(q.Patterns))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no select", `WHERE { ?x <p> ?y . }`},
		{"no where", `SELECT ?x { ?x <p> ?y . }`},
		{"no brace", `SELECT ?x WHERE ?x <p> ?y . }`},
		{"unterminated", `SELECT ?x WHERE { ?x <p> ?y .`},
		{"empty body", `SELECT ?x WHERE { }`},
		{"undeclared prefix", `SELECT ?x WHERE { ?x ub:p ?y . }`},
		{"empty var", `SELECT ? WHERE { ?x <p> ?y . }`},
		{"unterminated iri", `SELECT ?x WHERE { ?x <p ?y . }`},
		{"unterminated literal", `SELECT ?x WHERE { ?x <p> "oops . }`},
		{"trailing garbage", `SELECT ?x WHERE { ?x <p> ?y . } LIMIT 5`},
		{"bad prefix decl", `PREFIX ub <http://x> SELECT ?x WHERE { ?x <p> ?y . }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.in)
			if err == nil {
				t.Fatalf("no error for %q", c.in)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error type %T", err)
			}
		})
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT ?x ?y WHERE { ?x <p> ?y . ?y <q> "lit" . }`
	q := MustParse(src)
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if len(q2.Patterns) != len(q.Patterns) {
		t.Errorf("round trip lost patterns")
	}
	if q2.String() != q.String() {
		t.Errorf("String not stable:\n%s\nvs\n%s", q.String(), q2.String())
	}
}

func TestTriplePatternVars(t *testing.T) {
	tp := TriplePattern{S: V("x"), P: I("p"), O: V("x")}
	if vs := tp.Vars(); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("Vars = %v", vs)
	}
	if !slices.Contains(tp.Vars(), "x") || slices.Contains(tp.Vars(), "y") {
		t.Error("Vars wrong")
	}
	tp2 := TriplePattern{S: V("s"), P: V("p"), O: V("o")}
	if vs := tp2.Vars(); len(vs) != 3 {
		t.Errorf("Vars = %v", vs)
	}
}

func TestTermString(t *testing.T) {
	if V("x").String() != "?x" {
		t.Error("var string")
	}
	if I("urn:a").String() != "<urn:a>" {
		t.Error("iri string")
	}
	if L(`"v"`).String() != `"v"` {
		t.Error("literal string")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a query")
}

func TestParseCommentsAndSelectStar(t *testing.T) {
	q := MustParse(`
		# leading comment
		SELECT * WHERE {
			# inner comment
			?x <p> ?y .
		}`)
	if len(q.Select) != 0 {
		t.Errorf("SELECT * should leave Select empty, got %v", q.Select)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func TestParseL9StyleQuery(t *testing.T) {
	// Shape of the paper's L9 (11 triple patterns, constants mixed in).
	src := `
	PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	PREFIX ub: <http://lubm#>
	SELECT ?x ?y ?f ?c ?p ?n WHERE {
		?y rdf:type ub:University .
		?x rdf:type ub:GraduateStudent .
		?x ub:undergraduateDegreeFrom ?y .
		?f rdf:type ub:FullProfessor .
		?x ub:advisor ?f .
		?x ub:takesCourse ?c .
		?f ub:teacherOf ?c .
		?c rdf:type ub:GraduateCourse .
		<http://pub1> ub:publicationAuthor ?f .
		?p ub:publicationAuthor ?f .
		?p ub:name ?n .
	}`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 11 {
		t.Fatalf("patterns = %d, want 11", len(q.Patterns))
	}
	if len(q.Select) != 6 {
		t.Errorf("Select = %v", q.Select)
	}
}
