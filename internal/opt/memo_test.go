package opt

import (
	"context"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/resilience"
)

// TestMemoTable fills a memo that starts at 8 slots: keys that share a
// home slot probe past each other, every insert that would fill more
// than three quarters of the table doubles it first, and every key
// stored so far reads back its own plan after each growth. Absent keys
// miss, even ones that share a stored key's home slot.
func TestMemoTable(t *testing.T) {
	const slots = 8
	m := newMemo(slots)
	home := bitset.TPSet(1).Hash() & (slots - 1)
	var colliding, others []bitset.TPSet
	for k := bitset.TPSet(1); len(colliding) < 4 || len(others) < 200; k++ {
		if k.Hash()&(slots-1) == home && len(colliding) < 4 {
			colliding = append(colliding, k)
		} else {
			others = append(others, k)
		}
	}
	// The first three colliding keys fit without growth; the fourth
	// stays absent.
	var stored []bitset.TPSet
	for _, k := range colliding[:3] {
		m.put(memoSlot{key: k, plan: &plan.Node{Set: k}})
		stored = append(stored, k)
	}
	if len(m.slots) != slots {
		t.Fatalf("three inserts grew the table to %d slots", len(m.slots))
	}
	check := func() {
		t.Helper()
		for _, k := range stored {
			if slot, ok := m.get(k); !ok || slot.plan.Set != k {
				t.Fatalf("get(%v) = %v, %v after %d inserts into %d slots", k, slot.plan, ok, m.n, len(m.slots))
			}
		}
		if slot, ok := m.get(colliding[3]); ok {
			t.Fatalf("absent colliding key read %v", slot.plan)
		}
	}
	check()
	for _, k := range others {
		before := len(m.slots)
		m.put(memoSlot{key: k, plan: &plan.Node{Set: k}})
		stored = append(stored, k)
		if 4*m.n > 3*len(m.slots) {
			t.Fatalf("%d keys in %d slots: more than three quarters full", m.n, len(m.slots))
		}
		if len(m.slots) != before && len(m.slots) != 2*before {
			t.Fatalf("table went from %d to %d slots", before, len(m.slots))
		}
		check()
	}
	if m.n != len(stored) {
		t.Fatalf("memo counts %d keys, stored %d", m.n, len(stored))
	}
}

// TestMemoChargesOncePerInsert: every planned subquery is memoized
// once, and each insert reserves exactly one memo entry, all of which
// the run returns when it ends.
func TestMemoChargesOncePerInsert(t *testing.T) {
	n := 8
	in := makeInput(t, chainQuery(n), 5, nil)
	in.Gauge = resilience.NewBudget(1<<30, 0).NewGauge()
	res, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of n patterns has n(n+1)/2 connected subqueries.
	if want := int64(n * (n + 1) / 2); res.Counter.Subqueries != want {
		t.Fatalf("planned %d subqueries, want %d", res.Counter.Subqueries, want)
	}
	if got, want := in.Gauge.Peak(), res.Counter.Subqueries*memoEntryBytes; got != want {
		t.Fatalf("memo reserved %d bytes at peak, want %d (one entry per subquery)", got, want)
	}
	if got := in.Gauge.Used(); got != 0 {
		t.Fatalf("gauge still holds %d bytes after the run", got)
	}
}
