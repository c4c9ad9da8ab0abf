package opt

// Brute-force reference enumerators used to validate Algorithms 2 and
// 3: they generate candidate divisions exhaustively and test
// Definition 3 directly.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/sparql"
)

// oracleCBDs returns every connected binary-division of q on vj, as
// canonical pairs (the side containing the smallest vj-neighbor first).
func oracleCBDs(jg *querygraph.JoinGraph, q bitset.TPSet, vj int) [][2]bitset.TPSet {
	neighbors := jg.Ntp[vj].Intersect(q)
	if neighbors.Len() < 2 {
		return nil
	}
	seed := neighbors.Min()
	var out [][2]bitset.TPSet
	q.Subsets(func(a bitset.TPSet) bool {
		if a == q || !a.Has(seed) {
			return true
		}
		b := q.Diff(a)
		if !a.Overlaps(neighbors) || !b.Overlaps(neighbors) {
			return true
		}
		if !jg.Connected(a) || !jg.Connected(b) {
			return true
		}
		out = append(out, [2]bitset.TPSet{a, b})
		return true
	})
	return out
}

// oracleCMDs returns every connected multi-division of q (all join
// variables), as canonical sorted part lists plus the variable index.
func oracleCMDs(jg *querygraph.JoinGraph, q bitset.TPSet) []string {
	var out []string
	for vj := range jg.Vars {
		neighbors := jg.Ntp[vj].Intersect(q)
		if neighbors.Len() < 2 {
			continue
		}
		members := members(q)
		// Enumerate set partitions: assign each member to an existing
		// block or a fresh one.
		blocks := []bitset.TPSet{}
		var rec func(i int)
		rec = func(i int) {
			if i == len(members) {
				if len(blocks) < 2 {
					return
				}
				for _, b := range blocks {
					if !jg.Connected(b) || !b.Overlaps(neighbors) {
						return
					}
				}
				out = append(out, cmdKey(blocks, vj))
				return
			}
			for j := range blocks {
				blocks[j] = blocks[j].Add(members[i])
				rec(i + 1)
				blocks[j] = blocks[j].Remove(members[i])
			}
			blocks = append(blocks, bitset.Single(members[i]))
			rec(i + 1)
			blocks = blocks[:len(blocks)-1]
		}
		rec(0)
	}
	return out
}

// oracleCCMDs is oracleCMDs restricted to binary divisions plus
// connected complete-multi-divisions (Rule 1 of §IV-A).
func oracleCCMDs(jg *querygraph.JoinGraph, q bitset.TPSet) []string {
	var out []string
	for _, key := range oracleCMDs(jg, q) {
		parts, vj := parseCmdKey(key)
		if len(parts) == 2 {
			out = append(out, key)
			continue
		}
		neighbors := jg.Ntp[vj].Intersect(q)
		complete := true
		for _, p := range parts {
			if p.Intersect(neighbors).Len() != 1 {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, key)
		}
	}
	return out
}

// cmdKey canonicalizes a cmd as "v#p1|p2|..." with parts sorted.
func cmdKey(parts []bitset.TPSet, vj int) string {
	ps := make([]uint64, len(parts))
	for i, p := range parts {
		ps[i] = uint64(p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "v%d#", vj)
	for i, p := range ps {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%x", p)
	}
	return b.String()
}

func parseCmdKey(key string) ([]bitset.TPSet, int) {
	var vj int
	hash := strings.IndexByte(key, '#')
	fmt.Sscanf(key[:hash], "v%d", &vj)
	var parts []bitset.TPSet
	for _, s := range strings.Split(key[hash+1:], "|") {
		var x uint64
		fmt.Sscanf(s, "%x", &x)
		parts = append(parts, bitset.TPSet(x))
	}
	return parts, vj
}

// randomConnectedQuery builds a random connected query with n triple
// patterns over a shared variable pool; the structure mixes chains,
// stars and cross-links, producing every query class.
func randomConnectedQuery(r *rand.Rand, n int) *sparql.Query {
	q := &sparql.Query{}
	varName := func(i int) string { return fmt.Sprintf("v%d", i) }
	nvars := n + 2
	for i := 0; i < n; i++ {
		var s, o string
		if i == 0 {
			s, o = varName(0), varName(1)
		} else {
			// Guarantee connectivity: reuse a variable from an earlier
			// pattern on one side.
			prev := q.Patterns[r.Intn(i)]
			anchor := prev.S.Value
			if r.Intn(2) == 0 {
				anchor = prev.O.Value
			}
			other := varName(r.Intn(nvars))
			if r.Intn(2) == 0 {
				s, o = anchor, other
			} else {
				s, o = other, anchor
			}
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(s),
			P: sparql.I(fmt.Sprintf("p%d", r.Intn(4))),
			O: sparql.V(o),
		})
	}
	return q
}

// chainQuery returns a chain of n patterns: ?x0 p ?x1 . ?x1 p ?x2 ...
func chainQuery(n int) *sparql.Query {
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(fmt.Sprintf("x%d", i)),
			P: sparql.I(fmt.Sprintf("p%d", i)),
			O: sparql.V(fmt.Sprintf("x%d", i+1)),
		})
	}
	return q
}

// cycleQuery closes a chain of n patterns into a ring.
func cycleQuery(n int) *sparql.Query {
	q := chainQuery(n - 1)
	q.Patterns = append(q.Patterns, sparql.TriplePattern{
		S: sparql.V(fmt.Sprintf("x%d", n-1)),
		P: sparql.I("pc"),
		O: sparql.V("x0"),
	})
	return q
}

// starQuery returns n patterns sharing the single variable ?c.
func starQuery(n int) *sparql.Query {
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(fmt.Sprintf("s%d", i)),
			P: sparql.I(fmt.Sprintf("p%d", i)),
			O: sparql.V("c"),
		})
	}
	return q
}

// members returns the members of s in increasing order.
func members(s bitset.TPSet) []int {
	var out []int
	s.Each(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
