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

// TestReadIntoCommitsOnce pins the load's commit: a subscribed dataset
// sees one WriteDelta per ReadInto, holding each new triple once in
// file order — a line repeated in the file or already in the dataset is
// dropped — at the next epoch.
func TestReadIntoCommitsOnce(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("x", "y", "z")
	var got []rdf.WriteDelta
	ds.Subscribe(func(*rdf.Snapshot) func(rdf.WriteDelta) {
		return func(wd rdf.WriteDelta) { got = append(got, wd) }
	})
	in := `<c> <p> <d> .
<x> <y> <z> .
<a> <p> <b> .

<c> <p> <d> .
<e> <q> "f" .
`
	if err := ReadInto(strings.NewReader(in), ds); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d commits, want 1", len(got))
	}
	var lines []string
	for _, tr := range got[0].Triples {
		lines = append(lines, ds.String(tr))
	}
	want := []string{"<c> <p> <d>", "<a> <p> <b>", `<e> <q> <"f">`}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("delta holds\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
	if got[0].Epoch != 2 || ds.Epoch() != 2 || ds.Len() != 4 || got[0].Snap != ds.Snapshot() {
		t.Errorf("commit at epoch %d (dataset %d, Len %d), want epoch 2 and Len 4", got[0].Epoch, ds.Epoch(), ds.Len())
	}
}

// TestReadIntoParseErrorCommitsNothing: a malformed line k returns
// *ParseError{Line: k} and leaves the dataset as it was — no triple of
// the lines before k, no epoch, no snapshot, no commit.
func TestReadIntoParseErrorCommitsNothing(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("x", "y", "z")
	commits := 0
	ds.Subscribe(func(*rdf.Snapshot) func(rdf.WriteDelta) {
		return func(rdf.WriteDelta) { commits++ }
	})
	snap, epoch := ds.Snapshot(), ds.Epoch()
	in := "<a> <p> <b> .\n# comment\n<c> <p> <d> .\n<e> <p> oops .\n<g> <p> <h> .\n"
	err := ReadInto(strings.NewReader(in), ds)
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 4 {
		t.Fatalf("err = %v, want a *ParseError at line 4", err)
	}
	if ds.Len() != 1 || ds.Epoch() != epoch || ds.Snapshot() != snap || commits != 0 {
		t.Errorf("after the error: Len %d, epoch %d, same snapshot %v, %d commits; want 1, %d, true, 0",
			ds.Len(), ds.Epoch(), ds.Snapshot() == snap, commits, epoch)
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
