package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"unicode/utf8"

	"sparqlopt"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

// marshalCell is the oracle: the term object as the replaced encoder
// built it, json.Marshal for the value and one optional extra member.
func marshalCell(typ, value string, member ...string) string {
	val, _ := json.Marshal(value)
	out := fmt.Sprintf(`{"type":%q,"value":%s`, typ, val)
	if len(member) == 2 {
		m, _ := json.Marshal(member[1])
		out += fmt.Sprintf(`,%q:%s`, member[0], m)
	}
	return out + "}"
}

// ntLiteral renders value as a plain N-Triples literal. With uchar set,
// everything outside printable ASCII that is a valid rune goes out as
// \uXXXX / \UXXXXXXXX instead of raw bytes.
func ntLiteral(value string, uchar bool) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(value); {
		r, size := utf8.DecodeRuneInString(value[i:])
		switch {
		case r == '"' || r == '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case r == utf8.RuneError && size == 1 || !uchar || ' ' <= r && r <= '~':
			b.WriteString(value[i : i+size])
		case r <= 0xffff:
			fmt.Fprintf(&b, `\u%04X`, r)
		default:
			fmt.Fprintf(&b, `\U%08x`, r)
		}
		i += size
	}
	b.WriteByte('"')
	return b.String()
}

// encodeTerm interns term into a fresh dictionary and appends its JSON
// term object as the encoder does for a result cell: the class the
// dictionary recorded picks the path.
func encodeTerm(dst []byte, term string) []byte {
	d := rdf.NewDict()
	text, class := d.Entry(d.Intern(term))
	return appendJSONTerm(dst, text, class)
}

// nasty is every class of byte the escaper treats specially.
const nasty = "q\"uo\\te <b>&amp; \x00\x01\b\f\n\r\t\x1f\x7f \u00e9 \U0001F600 \u2028\u2029 \xff\xc3( end"

func TestEncodeTerm(t *testing.T) {
	const xsdInt = "http://www.w3.org/2001/XMLSchema#integer"
	cases := []struct{ term, want string }{
		// IRIs, blank nodes and plain literals: as json.Marshal has it.
		{"http://www.Department0.University0.edu/GraduateStudent12", ""},
		{"", marshalCell("uri", "")},
		{nasty, marshalCell("uri", nasty)},
		{"_:b0", marshalCell("bnode", "b0")},
		{"_:" + nasty, marshalCell("bnode", nasty)},
		{`"GraduateStudent12@Department0.University0.edu"`, marshalCell("literal", "GraduateStudent12@Department0.University0.edu")},
		{`""`, marshalCell("literal", "")},
		{ntLiteral(nasty, false), marshalCell("literal", nasty)},
		{ntLiteral(nasty, true), marshalCell("literal", nasty)},
		// The fixed forms: suffixes become members, escapes are decoded.
		{`"chat"@fr`, `{"type":"literal","value":"chat","xml:lang":"fr"}`},
		{`"1"^^<` + xsdInt + `>`, `{"type":"literal","value":"1","datatype":"` + xsdInt + `"}`},
		{`"a\"b"`, `{"type":"literal","value":"a\"b"}`},
		{`"a\\b\tc\'d"`, `{"type":"literal","value":"a\\b\tc'd"}`},
		{`"\u00E9\U0001F600 <"@en-GB`, "{\"type\":\"literal\",\"value\":\"\u00e9\U0001F600 \\u003c\",\"xml:lang\":\"en-GB\"}"},
		{`"\uD800"`, marshalCell("literal", "\ufffd")},
		{`"\UFFFFFFFF"`, marshalCell("literal", "\ufffd")},
		{`"say \"hi\""^^<http://example.org/t?a&b>`, marshalCell("literal", `say "hi"`, "datatype", "http://example.org/t?a&b")},
		// Malformed terms never fail: a bad escape stands for itself, a
		// missing closing quote ends the value at the end of the term,
		// an unrecognised suffix is not part of the value.
		{`"a\qb"`, marshalCell("literal", `a\qb`)},
		{`"a\u12"`, marshalCell("literal", `a\u12`)},
		{`"a\`, marshalCell("literal", `a\`)},
		{`"abc`, marshalCell("literal", "abc")},
		{`"`, marshalCell("literal", "")},
		{`"a"junk`, marshalCell("literal", "a")},
		{`"a"@`, marshalCell("literal", "a")},
		// Each byte that keeps a term from being plain, alone in an
		// otherwise plain term, and the plain forms next to them.
		{"http://example.org/a&b", ""},
		{"http://example.org/<a>", ""},
		{"http://example.org/a>b", ""},
		{`http://example.org/a\b`, ""},
		{"http://example.org/a\x7fb", ""},
		{"http://example.org/a\x01b", ""},
		{"http://example.org/caf\u00e9", ""},
		{"http://example.org/a\u2028b", ""},
		{`"A"`, marshalCell("literal", "A")},
		{`"x"@en`, `{"type":"literal","value":"x","xml:lang":"en"}`},
		{`"1"^^<http://www.w3.org/2001/XMLSchema#int>`, `{"type":"literal","value":"1","datatype":"http://www.w3.org/2001/XMLSchema#int"}`},
		{`"a&b"`, marshalCell("literal", "a&b")},
		{"\"a\x7fb\"", marshalCell("literal", "a\x7fb")},
		{"_:b\u00e9", marshalCell("bnode", "b\u00e9")},
		{"_:<b>", marshalCell("bnode", "<b>")},
	}
	for _, c := range cases {
		want := c.want
		if want == "" {
			want = marshalCell("uri", c.term)
		}
		got := string(encodeTerm([]byte("prefix"), c.term))
		if got != "prefix"+want {
			t.Errorf("term %q\n got %s\nwant %s", c.term, got[len("prefix"):], want)
		}
		if !json.Valid([]byte(want)) {
			t.Errorf("term %q: expectation %s is not JSON", c.term, want)
		}
	}
}

// FuzzEncodeTerm holds the encoder to encoding/json on arbitrary IRI,
// blank-node and plain-literal text, each interned so the dictionary's
// class picks the path: the appended bytes are exactly the replaced
// encoder's cell.
func FuzzEncodeTerm(f *testing.F) {
	for kind := uint8(0); kind < 4; kind++ {
		for _, s := range []string{"", "http://example.org/a", "b0", nasty, `A`, "\xf0\x9f", `"@en`} {
			f.Add(kind, s)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, s string) {
		var term, want string
		switch kind % 4 {
		case 0:
			if strings.HasPrefix(s, `"`) || strings.HasPrefix(s, "_:") {
				t.Skip("not an IRI to the dictionary")
			}
			term, want = s, marshalCell("uri", s)
		case 1:
			term, want = "_:"+s, marshalCell("bnode", s)
		default:
			term, want = ntLiteral(s, kind%4 == 3), marshalCell("literal", s)
		}
		if got := string(encodeTerm(nil, term)); got != want {
			t.Fatalf("term %q\n got %s\nwant %s", term, got, want)
		}
	})
}

// awkwardSystem serves a graph whose terms need every kind of escaping,
// and the plain terms beside them. It returns each object term with
// its JSON term object as encoding/json renders it.
func awkwardSystem(t *testing.T) (*sparqlopt.System, map[string]string) {
	t.Helper()
	const xsdInt = "http://www.w3.org/2001/XMLSchema#int"
	objects := map[string]string{
		"_:b0":                          marshalCell("bnode", "b0"),
		"_:b1&":                         marshalCell("bnode", "b1&"),
		`"plain"`:                       marshalCell("literal", "plain"),
		`"A"`:                           marshalCell("literal", "A"),
		`""`:                            marshalCell("literal", ""),
		`"a\"b"`:                        marshalCell("literal", `a"b`),
		`"abc`:                          marshalCell("literal", "abc"),
		`"chat"@fr`:                     marshalCell("literal", "chat", "xml:lang", "fr"),
		`"x"@en`:                        marshalCell("literal", "x", "xml:lang", "en"),
		`"1"^^<` + xsdInt + `>`:         marshalCell("literal", "1", "datatype", xsdInt),
		`"1"^^<http://example.org/int>`: marshalCell("literal", "1", "datatype", "http://example.org/int"),
		ntLiteral(nasty, false):         marshalCell("literal", nasty),
		ntLiteral("tab\there", true):    marshalCell("literal", "tab\there"),
	}
	for _, iri := range []string{"plain", "<o>&", "a\x7fb", "a\x01b", "caf\u00e9", "a\u2028b"} {
		iri = "http://example.org/" + iri
		objects[iri] = marshalCell("uri", iri)
	}
	ds := sparqlopt.NewDataset()
	for o := range objects {
		ds.Add("s", "p", o)
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, objects
}

// TestEncodeBody: a whole response is JSON, byte for byte what
// encoding/json makes of the terms that went in, and the TSV body
// carries the raw terms.
func TestEncodeBody(t *testing.T) {
	sys, objects := awkwardSystem(t)
	srv := newServer(t, sys, Config{})
	reqURL := srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?o WHERE { <s> <p> ?o . }`)

	resp, body := get(t, reqURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	if !json.Valid(body) {
		t.Fatalf("body is not JSON:\n%s", body)
	}
	// Rows arrive in engine order, so hold the body to the cells as a
	// multiset: each binding present, and nothing else in the body.
	const head, foot = `{"head":{"vars":["o"]},"results":{"bindings":[`, "]}}\n"
	size := len(head) + len(foot) + len(objects) - 1
	for o, cell := range objects {
		binding := `{"o":` + cell + `}`
		if !bytes.Contains(body, []byte(binding)) {
			t.Errorf("JSON body lacks %s for the term %q", binding, o)
		}
		size += len(binding)
	}
	if !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte(foot)) || len(body) != size {
		t.Fatalf("JSON body is %d bytes, want %d between the head and the foot:\n%s", len(body), size, body)
	}

	req, _ := http.NewRequest(http.MethodGet, reqURL, nil)
	req.Header.Set("Accept", ctTSV)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tsv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Raw terms may hold newlines, so compare as a multiset of
	// lines-with-terminator.
	size = len("?o\n")
	for o, cell := range objects {
		line := o + "\n"
		if strings.HasPrefix(cell, `{"type":"uri"`) {
			line = "<" + o + ">\n"
		}
		if !bytes.Contains(tsv, []byte(line)) {
			t.Errorf("TSV body lacks the raw term %q:\n%s", line, tsv)
		}
		size += len(line)
	}
	if !bytes.HasPrefix(tsv, []byte("?o\n")) || len(tsv) != size {
		t.Fatalf("TSV body is %d bytes, want %d starting with the header:\n%s", len(tsv), size, tsv)
	}
}

// TestEncodeRowAllocs: once the response buffer has grown, encoding a
// row allocates nothing in either format.
func TestEncodeRowAllocs(t *testing.T) {
	sys, _ := awkwardSystem(t)
	rows, err := sys.RunStream(context.Background(), `SELECT * WHERE { ?s <p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	var batch [][]sparqlopt.TermID
	for rows.Next() {
		batch = append(batch, append([]sparqlopt.TermID{}, rows.Row()...))
	}
	if err := rows.Close(); err != nil || len(batch) == 0 {
		t.Fatalf("%d rows, %v", len(batch), err)
	}
	for _, enc := range []encoder{&jsonEncoder{}, tsvEncoder{}} {
		buf := enc.header(make([]byte, 0, 64<<10), rows.Vars())
		perBatch := testing.AllocsPerRun(100, func() {
			out := buf
			for _, row := range batch {
				out = enc.row(out, sys, row)
			}
		})
		if perBatch != 0 {
			t.Errorf("%s: %v allocations per %d rows, want 0", enc.contentType(), perBatch, len(batch))
		}
	}
}

// BenchmarkEncodeRows times the row encoders alone, in both formats, on
// LUBM-1 result rows shaped like the benchmark's result-heavy queries:
// S2's two IRI columns (every rdf:type triple) and J1's three (students,
// courses and their teachers). It reports encode time and body bytes
// per row.
func BenchmarkEncodeRows(b *testing.B) {
	const prefixes = `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
`
	sys, err := sparqlopt.Open(lubm.Generate(lubm.Config{Universities: 1, Seed: 1}), sparqlopt.WithNodes(2))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, q := range []struct{ name, text string }{
		{"S2", prefixes + `SELECT ?x ?t WHERE { ?x rdf:type ?t . }`},
		{"J1", prefixes + `SELECT ?x ?c ?f WHERE { ?x ub:takesCourse ?c . ?f ub:teacherOf ?c . }`},
	} {
		rows, err := sys.RunStream(context.Background(), q.text)
		if err != nil {
			b.Fatal(err)
		}
		var batch [][]sparqlopt.TermID
		for rows.Next() {
			batch = append(batch, append([]sparqlopt.TermID{}, rows.Row()...))
		}
		if err := rows.Close(); err != nil || len(batch) == 0 {
			b.Fatalf("%s: %d rows, %v", q.name, len(batch), err)
		}
		for _, f := range []struct {
			name string
			enc  func() encoder
		}{
			{"json", func() encoder { return &jsonEncoder{} }},
			{"tsv", func() encoder { return tsvEncoder{} }},
		} {
			b.Run(q.name+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				var buf []byte
				for i := 0; i < b.N; i++ {
					enc := f.enc()
					buf = enc.header(buf[:0], rows.Vars())
					for _, row := range batch {
						buf = enc.row(buf, sys, row)
					}
					buf = enc.footer(buf)
				}
				perRow := float64(b.N) * float64(len(batch))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
				b.ReportMetric(float64(len(buf))/float64(len(batch)), "B/row")
			})
		}
	}
}
