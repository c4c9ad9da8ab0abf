// Package sparql defines the query model of paper §II-A/§II-B — a
// basic-graph-pattern query Q = {tp1, ..., tpn} — and a parser for the
// SPARQL subset the paper's workloads use: PREFIX declarations and
// SELECT queries whose WHERE clause is a conjunction of triple
// patterns (the benchmark queries L1–L10 and U1–U5 parse unchanged).
package sparql

import (
	"fmt"
	"strings"
)

// TermKind distinguishes the three kinds of pattern terms.
type TermKind uint8

const (
	// Var is a query variable such as ?x.
	Var TermKind = iota
	// IRI is a constant IRI.
	IRI
	// Literal is a constant literal (quotes preserved in Value).
	Literal
)

// Term is one position (subject, predicate or object) of a triple
// pattern: either a variable or a constant.
type Term struct {
	Kind  TermKind
	Value string // variable name without the leading '?', IRI text, or literal text
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: Var, Value: name} }

// I returns an IRI term.
func I(iri string) Term { return Term{Kind: IRI, Value: iri} }

// L returns a literal term.
func L(lit string) Term { return Term{Kind: Literal, Value: lit} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// String renders the term in SPARQL syntax.
func (t Term) String() string {
	switch t.Kind {
	case Var:
		return "?" + t.Value
	case IRI:
		return "<" + t.Value + ">"
	default:
		return t.Value
	}
}

// TriplePattern is one triple pattern of a basic graph pattern.
type TriplePattern struct {
	S, P, O Term
}

// String renders the pattern in SPARQL syntax.
func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String() + " ."
}

// Vars returns the distinct variable names of the pattern, in
// subject-predicate-object order.
func (tp TriplePattern) Vars() []string {
	var out []string
	add := func(t Term) {
		if !t.IsVar() {
			return
		}
		for _, v := range out {
			if v == t.Value {
				return
			}
		}
		out = append(out, t.Value)
	}
	add(tp.S)
	add(tp.P)
	add(tp.O)
	return out
}

// Query is a subgraph-matching query: a set of triple patterns plus
// the projected variables (empty Select means "project everything").
type Query struct {
	Select   []string
	Patterns []TriplePattern
}

// Vars returns the distinct variable names across all patterns, in
// first-appearance order.
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// String renders the query in SPARQL syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	if len(q.Select) == 0 {
		b.WriteString(" *")
	} else {
		for _, v := range q.Select {
			b.WriteString(" ?")
			b.WriteString(v)
		}
	}
	b.WriteString(" WHERE {\n")
	for _, tp := range q.Patterns {
		b.WriteString("  ")
		b.WriteString(tp.String())
		b.WriteByte('\n')
	}
	b.WriteString("}")
	return b.String()
}

// ParseError reports a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sparql: offset %d: %s", e.Offset, e.Msg)
}

// Parse parses a SELECT query in the supported subset.
func Parse(input string) (*Query, error) {
	p := &parser{src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error, for tests and fixtures.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src      string
	pos      int
	prefixes map[string]string
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '#' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

// keyword consumes kw case-insensitively if it is next; it must be
// followed by a non-identifier character.
func (p *parser) keyword(kw string) bool {
	p.skipSpace()
	if len(p.src)-p.pos < len(kw) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	end := p.pos + len(kw)
	if end < len(p.src) {
		c := p.src[end]
		if isNameChar(c) {
			return false
		}
	}
	p.pos = end
	return true
}

func isNameChar(c byte) bool {
	return c == '_' || c == '-' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

func (p *parser) parseQuery() (*Query, error) {
	p.prefixes = map[string]string{}
	for p.keyword("PREFIX") {
		if err := p.parsePrefix(); err != nil {
			return nil, err
		}
	}
	if !p.keyword("SELECT") {
		return nil, p.errf("expected SELECT")
	}
	q := &Query{}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
	} else {
		for {
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '?' {
				break
			}
			name, err := p.parseVarName()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, name)
		}
		if len(q.Select) == 0 {
			return nil, p.errf("expected projection variables or *")
		}
	}
	if !p.keyword("WHERE") {
		return nil, p.errf("expected WHERE")
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '{' {
		return nil, p.errf("expected '{'")
	}
	p.pos++
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, p.errf("unexpected end of query, expected '}'")
		}
		if p.src[p.pos] == '}' {
			p.pos++
			break
		}
		tp, err := p.parseTriplePattern()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected trailing input %q", p.src[p.pos:])
	}
	if len(q.Patterns) == 0 {
		return nil, p.errf("query has no triple patterns")
	}
	return q, nil
}

func (p *parser) parsePrefix() error {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		if !isNameChar(p.src[p.pos]) && p.src[p.pos] != '.' {
			return p.errf("malformed prefix name")
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return p.errf("malformed PREFIX: missing ':'")
	}
	name := p.src[start:p.pos]
	p.pos++ // ':'
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return p.errf("malformed PREFIX: expected '<IRI>'")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return p.errf("unterminated IRI in PREFIX")
	}
	p.prefixes[name] = p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	return nil
}

func (p *parser) parseVarName() (string, error) {
	// Caller verified p.src[p.pos] == '?'.
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("empty variable name")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseTriplePattern() (TriplePattern, error) {
	var tp TriplePattern
	var err error
	if tp.S, err = p.parseTerm(); err != nil {
		return tp, err
	}
	if tp.P, err = p.parseTerm(); err != nil {
		return tp, err
	}
	if tp.O, err = p.parseTerm(); err != nil {
		return tp, err
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '.' {
		p.pos++
	} else if p.pos >= len(p.src) || p.src[p.pos] != '}' {
		return tp, p.errf("expected '.' or '}' after triple pattern")
	}
	return tp, nil
}

func (p *parser) parseTerm() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return Term{}, p.errf("unexpected end of input in triple pattern")
	}
	switch c := p.src[p.pos]; {
	case c == '?':
		name, err := p.parseVarName()
		if err != nil {
			return Term{}, err
		}
		return V(name), nil
	case c == '<':
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return Term{}, p.errf("unterminated IRI")
		}
		iri := p.src[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return I(iri), nil
	case c == '"':
		return p.parseLiteral()
	case c == 'a' && p.pos+1 < len(p.src) && !isNameChar(p.src[p.pos+1]) && p.src[p.pos+1] != ':':
		// The 'a' shorthand for rdf:type.
		p.pos++
		return I("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), nil
	default:
		return p.parsePrefixedName()
	}
}

func (p *parser) parseLiteral() (Term, error) {
	start := p.pos
	p.pos++ // opening quote
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\\':
			p.pos += 2
		case '"':
			p.pos++
			// Optional @lang or ^^<datatype>.
			if p.pos < len(p.src) && p.src[p.pos] == '@' {
				for p.pos < len(p.src) && (isNameChar(p.src[p.pos]) || p.src[p.pos] == '@') {
					p.pos++
				}
			} else if p.pos+1 < len(p.src) && p.src[p.pos] == '^' && p.src[p.pos+1] == '^' {
				p.pos += 2
				if p.pos >= len(p.src) || p.src[p.pos] != '<' {
					return Term{}, p.errf("expected '<' after '^^'")
				}
				end := strings.IndexByte(p.src[p.pos:], '>')
				if end < 0 {
					return Term{}, p.errf("unterminated datatype IRI")
				}
				p.pos += end + 1
			}
			return L(p.src[start:p.pos]), nil
		default:
			p.pos++
		}
	}
	return Term{}, p.errf("unterminated literal")
}

func (p *parser) parsePrefixedName() (Term, error) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		if !isNameChar(p.src[p.pos]) {
			return Term{}, p.errf("unexpected character %q in term", p.src[p.pos])
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return Term{}, p.errf("expected ':' in prefixed name")
	}
	prefix := p.src[start:p.pos]
	base, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	p.pos++ // ':'
	local := p.pos
	for p.pos < len(p.src) && (isNameChar(p.src[p.pos]) || p.src[p.pos] == '.') {
		p.pos++
	}
	// A trailing '.' terminates the triple pattern, not the name.
	for p.pos > local && p.src[p.pos-1] == '.' {
		p.pos--
	}
	if p.pos == local {
		return Term{}, p.errf("empty local part in prefixed name")
	}
	return I(base + p.src[local:p.pos]), nil
}
