package opt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
)

// TestMemoTableClaims races goroutines claiming overlapping subqueries
// in different orders, through several generations of table growth:
// every set must get exactly one owner, and every claimant — a hit on
// a resolved future or a waiter on an unresolved one — must read that
// owner's plan.
func TestMemoTableClaims(t *testing.T) {
	const sets, workers = 3000, 8
	keys := make([]bitset.TPSet, sets)
	for i := range keys {
		keys[i] = bitset.TPSet(uint64(i+1) * 0x9e3779b97f4a7c15) // never 0
	}
	tab := newMemoTable()
	var owners [sets]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(sets) {
				f, owner := tab.claim(keys[i])
				if owner {
					owners[i].Add(1)
					f.resolve(&plan.Node{Set: keys[i]})
					continue
				}
				if p := f.wait(); p == nil || p.Set != keys[i] {
					t.Errorf("claim of set %d read %v", i, p)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	for i := range owners {
		if n := owners[i].Load(); n != 1 {
			t.Fatalf("set %d had %d owners", i, n)
		}
	}
}
