// Package ntriples reads and writes a pragmatic subset of the
// N-Triples serialization: one triple per line, terms are IRIs in
// angle brackets, plain or typed literals in double quotes, or blank
// nodes (_:label); lines end with '.' and '#' starts a comment.
//
// The parser is line-oriented and streaming, suitable for loading the
// multi-million-triple datasets the workload generators produce.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"sparqlopt/internal/rdf"
)

// ParseError describes a malformed input line.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // what went wrong
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Read parses N-Triples from r into a fresh dataset.
func Read(r io.Reader) (*rdf.Dataset, error) {
	ds := rdf.NewDataset()
	if err := ReadInto(r, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadInto parses N-Triples from r, appending to ds.
func ReadInto(r io.Reader, ds *rdf.Dataset) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseLine(line)
		if err != nil {
			return &ParseError{Line: lineno, Msg: err.Error()}
		}
		ds.Add(s, p, o)
	}
	return sc.Err()
}

// parseLine splits one statement into its three term strings.
func parseLine(line string) (s, p, o string, err error) {
	rest := line
	if s, rest, err = parseTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("subject: %v", err)
	}
	if p, rest, err = parseTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("predicate: %v", err)
	}
	if o, rest, err = parseTerm(rest); err != nil {
		return "", "", "", fmt.Errorf("object: %v", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return "", "", "", fmt.Errorf("expected terminating '.', got %q", rest)
	}
	return s, p, o, nil
}

// parseTerm consumes one term from the front of s and returns the term
// text (without the surrounding brackets for IRIs; with quotes and any
// datatype/lang suffix preserved for literals) and the remainder.
func parseTerm(s string) (term, rest string, err error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return "", "", fmt.Errorf("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI")
		}
		iri := s[1:end]
		// Dictionary terms tell literals by their leading quote, so an
		// IRI holding one would be written back as a literal. The other
		// characters N-Triples forbids in an IRI are let through: this
		// reader is a pragmatic subset, and a full check would cost a
		// scalar pass over every IRI of a load.
		if strings.IndexByte(iri, '"') >= 0 {
			return "", "", fmt.Errorf("IRI contains '\"'")
		}
		return iri, s[end+1:], nil
	case '"':
		i := 1
		for i < len(s) {
			switch s[i] {
			case '\\':
				i += 2
				continue
			case '"':
				// Include optional ^^<type> or @lang suffix.
				j := i + 1
				if j < len(s) && s[j] == '@' {
					for j < len(s) && s[j] != ' ' && s[j] != '\t' {
						j++
					}
				} else if j+1 < len(s) && s[j] == '^' && s[j+1] == '^' {
					k := strings.IndexByte(s[j:], '>')
					if k < 0 {
						return "", "", fmt.Errorf("unterminated literal datatype")
					}
					j += k + 1
				}
				return s[:j], s[j:], nil
			}
			i++
		}
		return "", "", fmt.Errorf("unterminated literal")
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return "", "", fmt.Errorf("malformed blank node")
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			return "", "", fmt.Errorf("blank node at end of line")
		}
		return s[:end], s[end:], nil
	default:
		return "", "", fmt.Errorf("unexpected character %q", s[0])
	}
}

// Write serializes the dataset as N-Triples. IRIs are written in angle
// brackets; literals and blank nodes, as the dictionary classed them,
// are written verbatim.
func Write(w io.Writer, ds *rdf.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, t := range ds.Triples {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n",
			formatTerm(ds.Dict.Entry(t.S)),
			formatTerm(ds.Dict.Entry(t.P)),
			formatTerm(ds.Dict.Entry(t.O))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatTerm(term string, class rdf.TermClass) string {
	if class.Kind() == rdf.IRI {
		return "<" + term + ">"
	}
	return term
}
