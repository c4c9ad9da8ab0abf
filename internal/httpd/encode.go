package httpd

// Result encoders. A response is built by appending to one byte slice —
// header, rows in arrival order, footer — which the handler writes out
// whenever it passes flushBytes. Nothing on the per-row path allocates:
// column names are escaped once per response, and each cell is one
// lock-free dictionary read of the term's text and class
// (System.TermEntry). The class, recorded when the term was interned,
// picks the term object; a plain term's text is copied whole, and only
// the rest goes through appendEscaped, the one escaping pass.
//
// The JSON encoder is byte-compatible with what encoding/json produces
// for the same values with HTML escaping on (Marshal's default): the
// short escapes \" \\ \b \f \n \r \t, \u00XX for the other control
// bytes and for < > &, \u2028 and \u2029 for U+2028/9, and the six
// bytes \ufffd for each byte of invalid UTF-8. Clients and the
// benchmark's golden body lengths depend on it; encode_test.go holds it
// to encoding/json.

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"sparqlopt"
	"sparqlopt/internal/rdf"
)

// encoder appends one result representation. An encoder serves a
// single response: header may keep per-response state for row.
type encoder interface {
	contentType() string
	header(dst []byte, vars []string) []byte
	row(dst []byte, sys *sparqlopt.System, row []sparqlopt.TermID) []byte
	footer(dst []byte) []byte
}

// jsonEncoder emits application/sparql-results+json.
type jsonEncoder struct {
	cols [][]byte // per column `"name":`, with a leading comma after the first
	rows int
}

func (*jsonEncoder) contentType() string { return ctJSON }

func (e *jsonEncoder) header(dst []byte, vars []string) []byte {
	dst = append(dst, `{"head":{"vars":[`...)
	e.cols = make([][]byte, len(vars))
	for i, v := range vars {
		var col []byte
		if i > 0 {
			dst = append(dst, ',')
			col = append(col, ',')
		}
		mark := len(dst)
		dst = append(appendJSONChars(append(dst, '"'), v), '"')
		e.cols[i] = append(append(col, dst[mark:]...), ':')
	}
	return append(dst, `]},"results":{"bindings":[`...)
}

func (e *jsonEncoder) row(dst []byte, sys *sparqlopt.System, row []sparqlopt.TermID) []byte {
	if e.rows++; e.rows > 1 {
		dst = append(dst, ',')
	}
	dst = append(dst, '{')
	for j, id := range row {
		term, class := sys.TermEntry(id)
		dst = appendJSONTerm(append(dst, e.cols[j]...), term, class)
	}
	return append(dst, '}')
}

func (*jsonEncoder) footer(dst []byte) []byte { return append(dst, "]}}\n"...) }

// appendJSONTerm appends a dictionary term as a SPARQL 1.1 Query
// Results JSON term object (§3.2.2). The dictionary stores N-Triples
// lexical forms and has classified them: a literal keeps its quotes and
// any suffix, a blank node its "_:", an IRI is bare. A plain term's
// value is its text, or for a literal the text inside the quotes,
// copied as is.
func appendJSONTerm(dst []byte, term string, class sparqlopt.TermClass) []byte {
	var value string
	switch class.Kind() {
	case rdf.Literal:
		if !class.Plain() {
			return appendJSONLiteral(dst, term)
		}
		dst, value = append(dst, `{"type":"literal","value":"`...), term[1:len(term)-1]
	case rdf.BlankNode:
		dst, value = append(dst, `{"type":"bnode","value":"`...), term[2:]
	default:
		dst, value = append(dst, `{"type":"uri","value":"`...), term
	}
	if class.Plain() {
		dst = append(dst, value...)
	} else {
		dst = appendJSONChars(dst, value)
	}
	return append(dst, `"}`...)
}

// appendJSONLiteral appends a literal that is not plain: its body is
// unescaped from N-Triples and escaped for JSON in one pass, and an
// @lang or ^^<datatype> suffix becomes a member of its own.
func appendJSONLiteral(dst []byte, term string) []byte {
	dst = append(dst, `{"type":"literal","value":"`...)
	dst, suffix := appendEscaped(dst, term[1:], true)
	switch {
	case len(suffix) > 1 && suffix[0] == '@':
		dst = append(dst, `","xml:lang":"`...)
		dst = appendJSONChars(dst, suffix[1:])
	case len(suffix) > 4 && strings.HasPrefix(suffix, "^^<") && suffix[len(suffix)-1] == '>':
		dst = append(dst, `","datatype":"`...)
		dst = appendJSONChars(dst, suffix[3:len(suffix)-1])
	}
	return append(dst, `"}`...)
}

// jsonSafe marks the ASCII bytes encoding/json copies through
// unescaped when HTML escaping is on: everything printable except the
// quote, the backslash and < > &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONChars appends s as the inside of a JSON string (no
// surrounding quotes), escaped byte for byte like encoding/json.
func appendJSONChars(dst []byte, s string) []byte {
	dst, _ = appendEscaped(dst, s, false)
	return dst
}

// appendEscaped is the one pass over a term's bytes. Runs of safe bytes
// are copied whole; the rest are escaped as encoding/json does. With
// literal set, s is the text after an N-Triples literal's opening quote:
// ECHAR / UCHAR escapes are decoded before JSON escaping (a malformed
// one stands for itself), the closing quote ends the pass, and what
// follows it — the @lang or ^^<datatype> suffix, if any — is returned.
// A literal with no closing quote is all value.
func appendEscaped(dst []byte, s string, literal bool) ([]byte, string) {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if literal && b == '"' {
				return dst, s[i+1:]
			}
			r, n := rune(b), 1
			if literal && b == '\\' {
				if er, en := ntEscape(s[i:]); en > 0 {
					r, n = er, en
				}
			}
			dst = appendJSONRune(dst, r)
			i += n
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + 1
		} else if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = appendJSONRune(dst, r)
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...), ""
}

// appendJSONRune appends one decoded character, escaped if JSON or
// encoding/json's HTML safety requires it.
func appendJSONRune(dst []byte, r rune) []byte {
	switch {
	case r == '"' || r == '\\':
		return append(dst, '\\', byte(r))
	case r == '\b':
		return append(dst, '\\', 'b')
	case r == '\f':
		return append(dst, '\\', 'f')
	case r == '\n':
		return append(dst, '\\', 'n')
	case r == '\r':
		return append(dst, '\\', 'r')
	case r == '\t':
		return append(dst, '\\', 't')
	case uint32(r) < utf8.RuneSelf && !jsonSafe[r]:
		return append(dst, '\\', 'u', '0', '0', hexDigits[r>>4], hexDigits[r&0xf])
	case r == '\u2028' || r == '\u2029':
		return append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
	}
	return utf8.AppendRune(dst, r)
}

// ntEscape decodes the N-Triples escape at the start of s (which begins
// with a backslash): an ECHAR, \uXXXX or \UXXXXXXXX. It returns the
// character and the bytes consumed, or 0, 0 when s starts no well-formed
// escape.
func ntEscape(s string) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case 't':
		return '\t', 2
	case 'b':
		return '\b', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 'f':
		return '\f', 2
	case '"', '\'', '\\':
		return rune(s[1]), 2
	case 'u':
		return hexRune(s, 4)
	case 'U':
		return hexRune(s, 8)
	}
	return 0, 0
}

// hexRune reads the digits hex digits after the two-byte escape prefix.
func hexRune(s string, digits int) (rune, int) {
	if len(s) < 2+digits {
		return 0, 0
	}
	v, err := strconv.ParseUint(s[2:2+digits], 16, 32)
	if err != nil {
		return 0, 0
	}
	return rune(v), 2 + digits
}

// tsvEncoder emits SPARQL 1.1 TSV: IRIs in angle brackets, literals
// and blank nodes in their N-Triples form, one row per line.
type tsvEncoder struct{}

func (tsvEncoder) contentType() string { return ctTSV }

func (tsvEncoder) header(dst []byte, vars []string) []byte {
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = append(append(dst, '?'), v...)
	}
	return append(dst, '\n')
}

func (tsvEncoder) row(dst []byte, sys *sparqlopt.System, row []sparqlopt.TermID) []byte {
	for j, id := range row {
		if j > 0 {
			dst = append(dst, '\t')
		}
		term, class := sys.TermEntry(id)
		if class.Kind() == rdf.IRI {
			dst = append(append(append(dst, '<'), term...), '>')
		} else {
			dst = append(dst, term...)
		}
	}
	return append(dst, '\n')
}

func (tsvEncoder) footer(dst []byte) []byte { return dst }
