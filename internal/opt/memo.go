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
	if sp.In.Faults.Should(faultinject.OptBudget) {
		sp.fail(&resilience.BudgetError{Site: "memo", Requested: memoEntryBytes,
			Used: sp.memoCharged, Limit: sp.memoCharged})
		return false
	}
	if sp.In.Gauge == nil {
		return true
	}
	if err := sp.In.Gauge.Reserve("memo", memoEntryBytes); err != nil {
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
		sp.In.Gauge.Release(sp.memoCharged)
		sp.memoCharged = 0
	}
}

// memo maps subquery bitsets to their best plans: an open-addressing
// hash table on TPSet.Hash, with linear probing, kept at most three
// quarters full. len(slots) is a power of two. Key 0 marks a free slot: the
// enumerator never memoizes the empty subquery.
type memo struct {
	slots []memoSlot
	n     int // stored subqueries
}

// memoSlot holds one subquery's best plan with the plan's cardinality
// and cost beside it: costing a cmd reads its children here, in the
// slot the lookup already loaded, instead of in their nodes.
type memoSlot struct {
	key        bitset.TPSet
	plan       *plan.Node
	card, cost float64
}

// memoInitialSlots is the table's first size (4 KiB): enough for the
// subqueries of a small query without growing.
const memoInitialSlots = 128

func newMemo(slots int) memo {
	return memo{slots: make([]memoSlot, slots)}
}

// get returns the slot stored for s and whether there is one.
func (m *memo) get(s bitset.TPSet) (memoSlot, bool) {
	mask := uint64(len(m.slots) - 1)
	for i := s.Hash() & mask; ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case s:
			return m.slots[i], true
		case 0:
			return memoSlot{}, false
		}
	}
}

// put stores slot, whose key must be absent, doubling the table first
// when the insert would fill more than three quarters of it.
func (m *memo) put(slot memoSlot) {
	if 4*(m.n+1) > 3*len(m.slots) {
		grown := newMemo(2 * len(m.slots))
		for _, slot := range m.slots {
			if slot.key != 0 {
				grown.insert(slot)
			}
		}
		grown.n = m.n
		*m = grown
	}
	m.insert(slot)
	m.n++
}

// insert stores slot in the first free slot of its key's probe
// sequence.
func (m *memo) insert(slot memoSlot) {
	mask := uint64(len(m.slots) - 1)
	i := slot.key.Hash() & mask
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = slot
}
