package ntriples

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"sparqlopt/internal/rdf"
)

func TestReadSimple(t *testing.T) {
	in := `
# a comment
<http://a> <http://p> <http://b> .
<http://a> <http://p> "lit" .

<http://b> <http://q> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://c> <http://r> "hi"@en .
_:b1 <http://s> <http://d> .
`
	ds, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 5 {
		t.Fatalf("Len = %d, want 5", ds.Len())
	}
	want := []string{
		`<http://a> <http://p> <http://b> .`,
		`<http://a> <http://p> "lit" .`,
		`<http://b> <http://q> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`<http://c> <http://r> "hi"@en .`,
		`_:b1 <http://s> <http://d> .`,
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("wrote %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReadEscapedQuote(t *testing.T) {
	in := `<a> <p> "he said \"hi\"" .`
	ds, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	term := ds.Dict.Term(ds.Triples[0].O)
	if term != `"he said \"hi\""` {
		t.Errorf("object = %q", term)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"missing dot", `<a> <p> <b>`},
		{"unterminated iri", `<a <p> <b> .`},
		{"quote in iri", `<a> <p> <"b> .`},
		{"unterminated literal", `<a> <p> "oops .`},
		{"garbage term", `<a> <p> ??? .`},
		{"too few terms", `<a> <p> .`},
		{"bad blank node", `_x <p> <b> .`},
		{"trailing garbage", `<a> <p> <b> . extra`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("no error for %q", c.in)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error type %T, want *ParseError", err)
			}
			if pe.Line != 1 {
				t.Errorf("Line = %d, want 1", pe.Line)
			}
		})
	}
}

func TestParseErrorMessage(t *testing.T) {
	e := &ParseError{Line: 7, Msg: "boom"}
	if !strings.Contains(e.Error(), "line 7") || !strings.Contains(e.Error(), "boom") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestReadInto(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("x", "y", "z")
	if err := ReadInto(strings.NewReader("<a> <b> <c> ."), ds); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d, want 2", ds.Len())
	}
}

// Property: Write then Read round-trips IRI-only datasets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		ds := rdf.NewDataset()
		for _, r := range raw {
			ds.Add(
				"urn:s"+string(rune('a'+r[0]%26)),
				"urn:p"+string(rune('a'+r[1]%26)),
				"urn:o"+string(rune('a'+r[2]%26)),
			)
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Len() != ds.Len() {
			return false
		}
		for i := range ds.Triples {
			if got.String(got.Triples[i]) != ds.String(ds.Triples[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
