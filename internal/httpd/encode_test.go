package httpd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"sparqlopt"
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
	}
	for _, c := range cases {
		want := c.want
		if want == "" {
			want = marshalCell("uri", c.term)
		}
		got := string(appendJSONTerm([]byte("prefix"), c.term))
		if got != "prefix"+want {
			t.Errorf("term %q\n got %s\nwant %s", c.term, got[len("prefix"):], want)
		}
		if !json.Valid([]byte(want)) {
			t.Errorf("term %q: expectation %s is not JSON", c.term, want)
		}
	}
}

// FuzzEncodeTerm holds the encoder to encoding/json on arbitrary IRI,
// blank-node and plain-literal text: the appended bytes are exactly the
// replaced encoder's cell.
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
		if got := string(appendJSONTerm(nil, term)); got != want {
			t.Fatalf("term %q\n got %s\nwant %s", term, got, want)
		}
	})
}

// awkwardSystem serves a graph whose terms need every kind of escaping.
func awkwardSystem(t *testing.T) (*sparqlopt.System, map[string]map[string]string) {
	t.Helper()
	// What a JSON client reads back: each invalid byte became U+FFFD.
	var nastyRead string
	quoted, _ := json.Marshal(nasty)
	json.Unmarshal(quoted, &nastyRead)
	objects := map[string]map[string]string{
		"http://example.org/<o>&":       {"type": "uri", "value": "http://example.org/<o>&"},
		"_:b1":                          {"type": "bnode", "value": "b1"},
		`"plain"`:                       {"type": "literal", "value": "plain"},
		`""`:                            {"type": "literal", "value": ""},
		`"chat"@fr`:                     {"type": "literal", "value": "chat", "xml:lang": "fr"},
		`"1"^^<http://example.org/int>`: {"type": "literal", "value": "1", "datatype": "http://example.org/int"},
		ntLiteral(nasty, false):         {"type": "literal", "value": nastyRead},
		ntLiteral("tab\there", true):    {"type": "literal", "value": "tab\there"},
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

// TestEncodeBody: a whole response parses with encoding/json into the
// terms that went in, and the TSV body carries the raw terms.
func TestEncodeBody(t *testing.T) {
	sys, objects := awkwardSystem(t)
	srv := newServer(t, sys, Config{})
	reqURL := srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?o WHERE { <s> <p> ?o . }`)

	resp, body := get(t, reqURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	var out struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]map[string]string
		}
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	if len(out.Head.Vars) != 1 || out.Head.Vars[0] != "o" {
		t.Fatalf("vars = %v", out.Head.Vars)
	}
	var got, want []string
	for _, b := range out.Results.Bindings {
		got = append(got, fmt.Sprint(b["o"]))
	}
	for _, o := range objects {
		want = append(want, fmt.Sprint(o))
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decoded bindings\n got %q\nwant %q", got, want)
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
	// Rows arrive in engine order and raw terms may hold newlines, so
	// compare as a multiset of lines-with-terminator.
	size := len("?o\n")
	for o, cell := range objects {
		line := o + "\n"
		if cell["type"] == "uri" {
			line = "<" + o + ">\n"
		}
		if !strings.Contains(string(tsv), line) {
			t.Errorf("TSV body lacks the raw term %q:\n%s", line, tsv)
		}
		size += len(line)
	}
	if !strings.HasPrefix(string(tsv), "?o\n") || len(tsv) != size {
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
