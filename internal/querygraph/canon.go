package querygraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/sparql"
)

// Canon is the canonical template of a basic graph pattern, the cache
// key of the serving-path plan cache. Two queries share a Canon.Key
// exactly when they are the same query "shape": identical join
// structure, identical predicate constants, and constants in the same
// subject/object positions — regardless of variable names, pattern
// order, or which concrete subject/object constants are bound. Their
// plans are therefore interchangeable after index/name remapping:
// ?x <knows> <alice> and ?y <knows> <bob> share one template.
//
// Subject/object constants are lifted to typed placeholders (the
// "bind parameters" of the template); predicate constants stay
// concrete, because in RDF the predicate plays the role of a table
// name — caching across predicates would share plans between
// unrelated relations.
type Canon struct {
	// Key is the canonical rendering. Equal Keys imply equal templates;
	// cache lookups compare Keys, so fingerprint collisions can never
	// alias two different shapes.
	Key string
	// Fingerprint is a 128-bit hash of Key, used to index and shard
	// cache tables without holding the full string.
	Fingerprint [2]uint64
	// PatternOf maps a canonical pattern index to the query's pattern
	// index; CanonOf is its inverse.
	PatternOf []int
	CanonOf   []int
	// CanonVar maps a query variable name to its canonical name
	// ("v0", "v1", ...); VarOf is its inverse.
	CanonVar map[string]string
	VarOf    map[string]string
}

// RemapSet translates a pattern bitset through perm (member i becomes
// perm[i]) — used to move plan pattern sets between a query's own
// index space and canonical space.
func RemapSet(s bitset.TPSet, perm []int) bitset.TPSet {
	var out bitset.TPSet
	s.Each(func(i int) bool {
		out = out.Add(perm[i])
		return true
	})
	return out
}

// Canonicalize computes the canonical template of q. It rejects the
// same queries NewJoinGraph rejects (empty, or wider than
// bitset.MaxPatterns).
//
// The canonical pattern order is found by color refinement on the
// bipartite pattern/variable incidence graph (a Weisfeiler-Lehman
// pass): every pattern starts from a structural color — its
// var/constant shape with predicates concrete — and colors are
// iteratively mixed with the colors of variables shared with other
// patterns. Refinement is isomorphism-invariant, so two renamings or
// reorderings of the same shape sort their patterns identically.
// Patterns left tied after refinement are ordered by original index;
// such ties are either true automorphisms (any order renders the same
// Key) or, in pathological shapes refinement cannot split, cost at
// most a missed cache hit — never a false one, because lookups
// compare full Keys.
func Canonicalize(q *sparql.Query) (*Canon, error) {
	n := len(q.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("querygraph: query has no triple patterns")
	}
	if n > bitset.MaxPatterns {
		return nil, tooManyPatterns(n)
	}

	// Variable occurrence lists: for each variable, the (pattern,
	// position) pairs it fills. Order of discovery is irrelevant —
	// everything below works on multisets.
	type occurrence struct{ pat, pos int }
	occ := map[string][]occurrence{}
	for i, tp := range q.Patterns {
		for pos, t := range [3]sparql.Term{tp.S, tp.P, tp.O} {
			if t.IsVar() {
				occ[t.Value] = append(occ[t.Value], occurrence{i, pos})
			}
		}
	}

	// Initial pattern colors: the structural shape with variables
	// anonymized (but intra-pattern repetition like ?x <p> ?x kept)
	// and subject/object constants reduced to their kind.
	patColor := make([]uint64, n)
	for i, tp := range q.Patterns {
		var b strings.Builder
		slot := map[string]int{}
		for pos, t := range [3]sparql.Term{tp.S, tp.P, tp.O} {
			b.WriteByte('|')
			switch {
			case t.IsVar():
				s, ok := slot[t.Value]
				if !ok {
					s = len(slot)
					slot[t.Value] = s
				}
				b.WriteString("v")
				b.WriteString(strconv.Itoa(s))
			case pos == 1:
				// Predicate constants stay concrete.
				b.WriteString(t.String())
			case t.Kind == sparql.IRI:
				b.WriteString("$i")
			default:
				b.WriteString("$l")
			}
		}
		patColor[i] = hash64(b.String())
	}

	// Color refinement: alternate pattern → variable → pattern color
	// updates. n rounds reach the stable partition (the incidence
	// graph's diameter is below 2n); each round is O(occurrences).
	varColor := map[string]uint64{}
	for round := 0; round < n; round++ {
		for v, os := range occ {
			sig := make([]uint64, len(os))
			for k, o := range os {
				sig[k] = mix(patColor[o.pat], uint64(o.pos)+1)
			}
			varColor[v] = foldSorted(0x9e3779b97f4a7c15, sig)
		}
		next := make([]uint64, n)
		for i, tp := range q.Patterns {
			h := patColor[i]
			for pos, t := range [3]sparql.Term{tp.S, tp.P, tp.O} {
				if t.IsVar() {
					h = mix(h, mix(varColor[t.Value], uint64(pos)+1))
				}
			}
			next[i] = h
		}
		patColor = next
	}

	// Canonical order: refined color, original index breaking ties.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if patColor[order[a]] != patColor[order[b]] {
			return patColor[order[a]] < patColor[order[b]]
		}
		return order[a] < order[b]
	})

	c := &Canon{
		PatternOf: order,
		CanonOf:   make([]int, n),
		CanonVar:  make(map[string]string, len(occ)),
		VarOf:     make(map[string]string, len(occ)),
	}
	for ci, qi := range order {
		c.CanonOf[qi] = ci
	}

	// Canonical variable names by first occurrence in canonical order,
	// then the final rendering.
	var b strings.Builder
	for _, qi := range order {
		tp := q.Patterns[qi]
		for pos, t := range [3]sparql.Term{tp.S, tp.P, tp.O} {
			if pos > 0 {
				b.WriteByte(' ')
			}
			switch {
			case t.IsVar():
				name, ok := c.CanonVar[t.Value]
				if !ok {
					name = "v" + strconv.Itoa(len(c.CanonVar))
					c.CanonVar[t.Value] = name
					c.VarOf[name] = t.Value
				}
				b.WriteByte('?')
				b.WriteString(name)
			case pos == 1:
				b.WriteString(t.String())
			case t.Kind == sparql.IRI:
				b.WriteString("$i")
			default:
				b.WriteString("$l")
			}
		}
		b.WriteString(" .\n")
	}
	c.Key = b.String()
	c.Fingerprint = fingerprint(c.Key)
	return c, nil
}

// hash64 is FNV-1a over s.
func hash64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mix combines two words with the splitmix64 finalizer, the same
// mixer bitset.TPSet.Hash uses.
func mix(a, b uint64) uint64 {
	x := a + 0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// foldSorted hashes a multiset of words order-independently: sort,
// then fold left.
func foldSorted(seed uint64, ws []uint64) uint64 {
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	h := seed
	for _, w := range ws {
		h = mix(h, w)
	}
	return h
}

// fingerprint derives the 128-bit key hash: two independent FNV-1a
// streams, the second over a seeded variant, each finished with the
// splitmix64 mixer.
func fingerprint(key string) [2]uint64 {
	h1 := hash64(key)
	const offset2, prime = 0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15, 1099511628211
	h2 := uint64(offset2)
	for i := 0; i < len(key); i++ {
		h2 ^= uint64(key[i])
		h2 *= prime
	}
	return [2]uint64{mix(h1, 1), mix(h2, 2)}
}
