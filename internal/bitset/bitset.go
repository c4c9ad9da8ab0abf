// Package bitset provides the compact subquery encoding used throughout
// the optimizer. A query is a set of at most 64 triple patterns; a
// subquery is encoded as a TPSet, a 64-bit bitset in which bit i is set
// when triple pattern i belongs to the subquery (paper §III-B).
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// MaxPatterns is the largest number of triple patterns a single query
// may contain. The paper evaluates queries of up to 30 triple patterns;
// a single machine word keeps every set operation O(1).
const MaxPatterns = 64

// TPSet is a set of triple-pattern indexes encoded as a bitset.
// The zero value is the empty set and is ready to use.
type TPSet uint64

// Full returns the set {0, 1, ..., n-1}. It panics if n exceeds
// MaxPatterns.
func Full(n int) TPSet {
	if n < 0 || n > MaxPatterns {
		panic("bitset: size out of range")
	}
	if n == MaxPatterns {
		return ^TPSet(0)
	}
	return TPSet(1)<<uint(n) - 1
}

// Single returns the singleton set {i}.
func Single(i int) TPSet { return TPSet(1) << uint(i) }

// Of returns the set containing exactly the given indexes.
func Of(indexes ...int) TPSet {
	var s TPSet
	for _, i := range indexes {
		s |= Single(i)
	}
	return s
}

// Has reports whether i is a member of s.
func (s TPSet) Has(i int) bool { return s&Single(i) != 0 }

// Add returns s ∪ {i}.
func (s TPSet) Add(i int) TPSet { return s | Single(i) }

// Remove returns s \ {i}.
func (s TPSet) Remove(i int) TPSet { return s &^ Single(i) }

// Union returns s ∪ t.
func (s TPSet) Union(t TPSet) TPSet { return s | t }

// Intersect returns s ∩ t.
func (s TPSet) Intersect(t TPSet) TPSet { return s & t }

// Diff returns s \ t.
func (s TPSet) Diff(t TPSet) TPSet { return s &^ t }

// IsEmpty reports whether s is the empty set.
func (s TPSet) IsEmpty() bool { return s == 0 }

// Len returns the number of members of s.
func (s TPSet) Len() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether every member of s is a member of t.
// This is the bitset containment test of appendix A
// (b_MLQ & b_SQ == b_SQ).
func (s TPSet) SubsetOf(t TPSet) bool { return s&t == s }

// Overlaps reports whether s and t share at least one member.
func (s TPSet) Overlaps(t TPSet) bool { return s&t != 0 }

// Min returns the smallest member of s. It panics on the empty set.
func (s TPSet) Min() int {
	if s == 0 {
		panic("bitset: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Each calls f for every member of s in increasing order. Iteration
// stops early if f returns false.
func (s TPSet) Each(f func(i int) bool) {
	for s != 0 {
		i := bits.TrailingZeros64(uint64(s))
		if !f(i) {
			return
		}
		s &= s - 1
	}
}

// Members returns the members of s in increasing order.
func (s TPSet) Members() []int {
	out := make([]int, 0, s.Len())
	s.Each(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Subsets calls f for every non-empty subset of s, in an unspecified
// order. Iteration stops early if f returns false. The classic
// sub = (sub - 1) & s trick enumerates exactly the 2^|s|−1 non-empty
// subsets.
func (s TPSet) Subsets(f func(sub TPSet) bool) {
	for sub := s; sub != 0; sub = (sub - 1) & s {
		if !f(sub) {
			return
		}
	}
}

// ProperSubsets calls f for every non-empty proper subset of s.
func (s TPSet) ProperSubsets(f func(sub TPSet) bool) {
	s.Subsets(func(sub TPSet) bool {
		if sub == s {
			return true
		}
		return f(sub)
	})
}

// Hash returns a well-mixed 64-bit hash of the set (the finalizer of
// splitmix64). Raw TPSet values of related subqueries differ only in a
// few low bits; the mix spreads them evenly, which the linear probing
// of the optimizer's memo table relies on.
func (s TPSet) Hash() uint64 {
	x := uint64(s)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the set as "{0,3,5}".
func (s TPSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
