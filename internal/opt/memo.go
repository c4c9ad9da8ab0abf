package opt

import (
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

// memoEntryBytes approximates the resident cost of one memo entry: the
// memo slot and the plan node the entry pins. The figure is
// deliberately round — the budget tracks growth, not bytes-exact heap
// usage — but it scales with the real driver of optimizer memory, the
// number of distinct subqueries memoized (exponential in query size
// for TD-CMD).
const memoEntryBytes = 192

// chargeMemoEntry reserves one memo entry against the query's budget
// before the entry is stored. On a trip (or an injected OptBudget
// fault) it fails the run with the typed error and reports false; the
// caller skips the insert and unwinds.
func (sp *space) chargeMemoEntry() bool {
	if sp.faults.Should(faultinject.OptBudget) {
		sp.fail(&resilience.BudgetError{Site: "memo", Requested: memoEntryBytes,
			Used: sp.memoCharged, Limit: sp.memoCharged})
		return false
	}
	if sp.gauge == nil {
		return true
	}
	if err := sp.gauge.Reserve("memo", memoEntryBytes); err != nil {
		sp.fail(err)
		return false
	}
	sp.memoCharged += memoEntryBytes
	return true
}

// releaseMemo returns every memo reservation of this run: the memo is
// dropped when enumeration ends, win or lose.
func (sp *space) releaseMemo() {
	if sp.memoCharged > 0 {
		sp.gauge.Release(sp.memoCharged)
		sp.memoCharged = 0
	}
}

// memo maps subquery bitsets to their best plans: an open-addressing
// hash table on TPSet.Hash, with linear probing, kept at most half
// full. len(keys) is a power of two. Key 0 marks a free slot: the
// enumerator never memoizes the empty subquery.
type memo struct {
	keys  []bitset.TPSet
	plans []*plan.Node
	n     int // stored subqueries
}

// memoInitialSlots is the table's first size: enough for the
// subqueries of a small query without growing.
const memoInitialSlots = 256

func newMemo(slots int) memo {
	return memo{keys: make([]bitset.TPSet, slots), plans: make([]*plan.Node, slots)}
}

// get returns the plan stored for s and whether there is one.
func (m *memo) get(s bitset.TPSet) (*plan.Node, bool) {
	mask := uint64(len(m.keys) - 1)
	for i := s.Hash() & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case s:
			return m.plans[i], true
		case 0:
			return nil, false
		}
	}
}

// put stores p for s, which must be absent, doubling the table first
// when the insert would fill more than half of it.
func (m *memo) put(s bitset.TPSet, p *plan.Node) {
	if 2*(m.n+1) > len(m.keys) {
		grown := newMemo(2 * len(m.keys))
		for i, k := range m.keys {
			if k != 0 {
				grown.insert(k, m.plans[i])
			}
		}
		grown.n = m.n
		*m = grown
	}
	m.insert(s, p)
	m.n++
}

// insert stores p for s in the first free slot of s's probe sequence.
func (m *memo) insert(s bitset.TPSet, p *plan.Node) {
	mask := uint64(len(m.keys) - 1)
	i := s.Hash() & mask
	for m.keys[i] != 0 {
		i = (i + 1) & mask
	}
	m.keys[i], m.plans[i] = s, p
}
