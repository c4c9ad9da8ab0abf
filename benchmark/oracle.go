package main

import (
	"fmt"
	"hash/fnv"

	"sparqlopt"
	"sparqlopt/internal/sparql"
)

// answer is what the benchmark compares for one request: the distinct
// row count and a digest over the rendered terms that does not depend
// on row order (the server streams rows in engine emission order).
type answer struct {
	Rows   int64  `json:"rows"`
	Digest string `json:"digest"`
}

// digester folds rows into an answer. A row's hash covers its terms in
// the oracle's column order; rows combine by wrapping sum and by xor,
// both commutative.
type digester struct {
	rows     int64
	sum, xor uint64
}

func (d *digester) addRow(terms []string) {
	h := fnv.New64a()
	for _, t := range terms {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	// fnv's low bits are weak under addition; finish with a mixer.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	d.rows++
	d.sum += x
	d.xor ^= x*0x9e3779b97f4a7c15 + 1
}

func (d *digester) answer() answer {
	return answer{Rows: d.rows, Digest: fmt.Sprintf("%016x%016x", d.sum, d.xor)}
}

// connectedFirst returns q with its patterns reordered so that each
// one after the first shares a variable with an earlier one, starting
// from a pattern with a constant subject or object when there is one.
// The BGP is a set, so this changes nothing but the order in which
// sparqlopt.Reference folds its joins — L9 in syntactic order starts
// with a cross product. SELECT is made explicit so that SELECT * keeps
// its column order.
func connectedFirst(q *sparql.Query) *sparql.Query {
	sel := q.Select
	if len(sel) == 0 {
		sel = q.Vars()
	}
	used := make([]bool, len(q.Patterns))
	bound := map[string]bool{}
	out := &sparql.Query{Select: sel}
	for len(out.Patterns) < len(q.Patterns) {
		best, bestScore := -1, -1
		for i, tp := range q.Patterns {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range []sparql.Term{tp.S, tp.O} {
				if !t.IsVar() {
					score++
				} else if bound[t.Value] {
					score += 2
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		out.Patterns = append(out.Patterns, q.Patterns[best])
		for _, v := range q.Patterns[best].Vars() {
			bound[v] = true
		}
	}
	return out
}

// reference parses src and evaluates it with sparqlopt.Reference, the
// repo's ground truth and the benchmark's only evaluator; sel, when
// given, replaces the SELECT list. One call indexes the dataset afresh
// (≈20 ms at LUBM-10), which a run's ≤80 distinct requests can afford.
func reference(ds *sparqlopt.Dataset, src string, sel ...string) (*sparqlopt.ExecResult, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(sel) > 0 {
		q.Select = sel
	}
	return sparqlopt.Reference(ds, connectedFirst(q))
}

// referenceAnswer is the oracle: src's answer by sparqlopt.Reference.
func referenceAnswer(ds *sparqlopt.Dataset, src string) (vars []string, a answer, err error) {
	res, err := reference(ds, src)
	if err != nil {
		return nil, answer{}, err
	}
	var d digester
	terms := make([]string, len(res.Vars))
	for _, row := range res.Rows {
		for i, id := range row {
			terms[i] = ds.Dict.Term(id)
		}
		d.addRow(terms)
	}
	return res.Vars, d.answer(), nil
}
