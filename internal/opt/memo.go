package opt

import (
	"sync"
	"sync/atomic"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

// memoEntryBytes approximates the resident cost of one memo entry: the
// memo slot, the future, and the plan node the entry pins. The figure
// is deliberately round — the budget tracks growth, not bytes-exact
// heap usage — but it scales with the real driver of optimizer memory,
// the number of distinct subqueries memoized (exponential in query
// size for TD-CMD).
const memoEntryBytes = 192

// chargeMemoEntry reserves one memo entry against the query's budget
// before the entry is published. On a trip (or an injected OptBudget
// fault) it fails the run with the typed error and reports false; the
// caller skips the insert and unwinds.
func (sp *space) chargeMemoEntry() bool {
	if sp.faults.Should(faultinject.OptBudget) {
		sp.fail(&resilience.BudgetError{Site: "memo", Requested: memoEntryBytes,
			Used: sp.memoCharged.Load(), Limit: sp.memoCharged.Load()})
		return false
	}
	if sp.gauge == nil {
		return true
	}
	if err := sp.gauge.Reserve("memo", memoEntryBytes); err != nil {
		sp.fail(err)
		return false
	}
	sp.memoCharged.Add(memoEntryBytes)
	return true
}

// releaseMemo returns every memo reservation of this run: the memo is
// dropped when enumeration ends, win or lose.
func (sp *space) releaseMemo() {
	if n := sp.memoCharged.Swap(0); n > 0 {
		sp.gauge.Release(n)
	}
}

// The parallel enumerator replaces the sequential plain-map memo with
// a table of plan futures. Each distinct subquery is planned by exactly
// one worker: the first goroutine to claim a set becomes its owner and
// computes the plan; later claimants receive the same future and, while
// it is unresolved, block on its completion. This keeps the
// search-space counters (and the amount of work) identical to the
// sequential run — no subquery is ever planned twice — while letting
// independent subqueries proceed on different cores.
//
// Almost every claim is a hit on a future resolved long ago, so a hit
// writes nothing shared: it probes the table with atomic loads, takes
// no lock, and reads the future's resolved flag instead of receiving
// from its channel. Only a miss takes the table's lock, and only a
// waiter on an unresolved future touches the channel.

// futurePlan is the promise for one subquery's best plan. The owner
// writes plan, then sets resolved, then closes done: a claimant that
// loads resolved == true reads a fully published plan without touching
// the channel; one that loads false waits on done. plan is nil when the
// run was cancelled mid-computation (the run as a whole errors out in
// that case).
type futurePlan struct {
	resolved atomic.Bool
	done     chan struct{}
	plan     *plan.Node
}

// memoTable maps subquery bitsets to plan futures: an open-addressing
// hash table (linear probing, at most half full) that readers probe
// without a lock. Inserts and growth serialize on mu. An insert stores
// the future before the key, and growth fills the new slots before
// publishing them, so a reader that finds a key finds its future. A
// reader's miss is not final — the key may have been published after
// its probe, or into slots grown since it loaded them — so claim
// re-probes under mu before it creates a future.
type memoTable struct {
	slots atomic.Pointer[memoSlots]
	mu    sync.Mutex
	n     int // claimed subqueries, guarded by mu
}

// memoSlots is one generation of the table; len(keys) is a power of
// two. Key 0 marks a free slot: the enumerator never claims the empty
// subquery.
type memoSlots struct {
	keys []atomic.Uint64
	futs []atomic.Pointer[futurePlan]
}

// memoInitialSlots is the first generation's size: enough for the
// subqueries of a small query without growing.
const memoInitialSlots = 256

func newMemoSlots(n int) *memoSlots {
	return &memoSlots{keys: make([]atomic.Uint64, n), futs: make([]atomic.Pointer[futurePlan], n)}
}

func newMemoTable() *memoTable {
	t := &memoTable{}
	t.slots.Store(newMemoSlots(memoInitialSlots))
	return t
}

// find returns the future published for s in this generation, or nil.
func (m *memoSlots) find(s bitset.TPSet) *futurePlan {
	mask := uint64(len(m.keys) - 1)
	for i := s.Hash() & mask; ; i = (i + 1) & mask {
		switch m.keys[i].Load() {
		case uint64(s):
			return m.futs[i].Load()
		case 0:
			return nil
		}
	}
}

// put stores f for s, which must be absent, in a free slot.
func (m *memoSlots) put(s bitset.TPSet, f *futurePlan) {
	mask := uint64(len(m.keys) - 1)
	i := s.Hash() & mask
	for m.keys[i].Load() != 0 {
		i = (i + 1) & mask
	}
	m.futs[i].Store(f)
	m.keys[i].Store(uint64(s))
}

// claim returns the future for s and whether the caller won ownership.
// The winner must compute the plan and resolve f exactly once; losers
// call f.wait.
func (t *memoTable) claim(s bitset.TPSet) (f *futurePlan, owner bool) {
	if f := t.slots.Load().find(s); f != nil {
		return f, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.slots.Load()
	if f := cur.find(s); f != nil {
		return f, false // published after the lock-free probe
	}
	if 2*(t.n+1) > len(cur.keys) {
		grown := newMemoSlots(2 * len(cur.keys))
		for i := range cur.keys {
			if k := cur.keys[i].Load(); k != 0 {
				grown.put(bitset.TPSet(k), cur.futs[i].Load())
			}
		}
		t.slots.Store(grown)
		cur = grown
	}
	f = &futurePlan{done: make(chan struct{})}
	cur.put(s, f)
	t.n++
	return f, true
}

// resolve publishes p as the owner's result and wakes all waiters.
func (f *futurePlan) resolve(p *plan.Node) {
	f.plan = p
	f.resolved.Store(true)
	close(f.done)
}

// wait returns the owner's result, blocking only while the future is
// unresolved.
func (f *futurePlan) wait() *plan.Node {
	if !f.resolved.Load() {
		<-f.done
	}
	return f.plan
}
