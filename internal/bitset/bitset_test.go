package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFull(t *testing.T) {
	if Full(0) != 0 {
		t.Errorf("Full(0) = %v, want empty", Full(0))
	}
	if Full(3) != Of(0, 1, 2) {
		t.Errorf("Full(3) = %v", Full(3))
	}
	if Full(64) != ^TPSet(0) {
		t.Errorf("Full(64) = %x", uint64(Full(64)))
	}
	if got := Full(64).Len(); got != 64 {
		t.Errorf("Full(64).Len() = %d", got)
	}
}

func TestFullPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Full(%d) did not panic", n)
				}
			}()
			Full(n)
		}()
	}
}

func TestBasicOps(t *testing.T) {
	s := Of(1, 5, 9)
	if !s.Has(5) || s.Has(2) {
		t.Errorf("Has wrong: %v", s)
	}
	if s.Add(2) != Of(1, 2, 5, 9) {
		t.Errorf("Add wrong")
	}
	if s.Remove(5) != Of(1, 9) {
		t.Errorf("Remove wrong")
	}
	if s.Remove(4) != s {
		t.Errorf("Remove of absent member changed set")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if s.Min() != 1 {
		t.Errorf("Min = %d, want 1", s.Min())
	}
	if s.String() != "{1,5,9}" {
		t.Errorf("String = %q", s.String())
	}
	if TPSet(0).String() != "{}" {
		t.Errorf("empty String = %q", TPSet(0).String())
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min of empty set did not panic")
		}
	}()
	TPSet(0).Min()
}

func TestSetAlgebra(t *testing.T) {
	a, b := Of(0, 1, 2), Of(2, 3)
	if a.Union(b) != Of(0, 1, 2, 3) {
		t.Error("Union wrong")
	}
	if a.Intersect(b) != Of(2) {
		t.Error("Intersect wrong")
	}
	if a.Diff(b) != Of(0, 1) {
		t.Error("Diff wrong")
	}
	if !Of(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	if !a.Overlaps(b) || a.Overlaps(Of(5)) {
		t.Error("Overlaps wrong")
	}
	if !TPSet(0).IsEmpty() || a.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
}

func TestMembersRoundTrip(t *testing.T) {
	want := []int{0, 7, 13, 63}
	s := Of(want...)
	got := members(s)
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	s := Of(1, 2, 3, 4)
	n := 0
	s.Each(func(int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("Each visited %d members after early stop, want 2", n)
	}
}

func TestSubsetsCount(t *testing.T) {
	s := Of(0, 2, 5)
	n := 0
	s.Subsets(func(sub TPSet) bool {
		if !sub.SubsetOf(s) || sub.IsEmpty() {
			t.Errorf("bad subset %v", sub)
		}
		n++
		return true
	})
	if n != 7 { // 2^3 - 1
		t.Errorf("Subsets visited %d, want 7", n)
	}
}

func TestSubsetsEmpty(t *testing.T) {
	TPSet(0).Subsets(func(TPSet) bool {
		t.Error("subset emitted for empty set")
		return true
	})
}

func TestProperSubsets(t *testing.T) {
	s := Of(1, 3)
	seen := map[TPSet]bool{}
	s.ProperSubsets(func(sub TPSet) bool {
		if sub == s {
			t.Error("full set emitted by ProperSubsets")
		}
		seen[sub] = true
		return true
	})
	if len(seen) != 2 {
		t.Errorf("ProperSubsets count = %d, want 2", len(seen))
	}
}

func TestSubsetsEarlyStop(t *testing.T) {
	n := 0
	Of(0, 1, 2, 3).Subsets(func(TPSet) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("Subsets visited %d after early stop, want 3", n)
	}
}

// Property: Members round-trips with Of, and Len agrees with popcount.
func TestQuickMembersOf(t *testing.T) {
	f := func(x uint64) bool {
		s := TPSet(x)
		if s.Len() != bits.OnesCount64(x) {
			return false
		}
		return Of(members(s)...) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: subset enumeration emits each subset exactly once.
func TestQuickSubsetsUnique(t *testing.T) {
	f := func(x uint16) bool {
		s := TPSet(x)
		seen := map[TPSet]bool{}
		ok := true
		s.Subsets(func(sub TPSet) bool {
			if seen[sub] || !sub.SubsetOf(s) || sub.IsEmpty() {
				ok = false
				return false
			}
			seen[sub] = true
			return true
		})
		want := 0
		if s != 0 {
			want = 1<<uint(s.Len()) - 1
		}
		return ok && len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan over a fixed universe.
func TestQuickDeMorgan(t *testing.T) {
	u := Full(64)
	f := func(a, b uint64) bool {
		x, y := TPSet(a), TPSet(b)
		return u.Diff(x.Union(y)) == u.Diff(x).Intersect(u.Diff(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Hash must be deterministic and spread consecutive bitsets across
// memo shards: over all 64 singletons plus 200 random sets, no more
// than a small fraction may collide modulo a 64-way shard table.
func TestHash(t *testing.T) {
	if Of(3, 7).Hash() != Of(3, 7).Hash() {
		t.Fatal("Hash is not deterministic")
	}
	shards := make(map[uint64]int)
	sets := 0
	for i := 0; i < 64; i++ {
		shards[Of(i).Hash()%64]++
		sets++
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		shards[TPSet(rng.Uint64()).Hash()%64]++
		sets++
	}
	max := 0
	for _, n := range shards {
		if n > max {
			max = n
		}
	}
	// A perfectly uniform spread puts ~4 sets per shard; allow 4×.
	if max > 16 {
		t.Errorf("shard skew: busiest shard holds %d of %d sets", max, sets)
	}
}

// members returns the members of s in increasing order.
func members(s TPSet) []int {
	out := make([]int, 0, s.Len())
	s.Each(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
