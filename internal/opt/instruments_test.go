package opt

import (
	"context"
	"errors"
	"testing"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/stats"
	"sparqlopt/internal/workload/lubm"
)

// tallies reads the four per-event metrics of inst: memo hits, memo
// misses, Rule 3 shortcuts and Rule 2 skipped broadcasts.
func tallies(inst *Instruments) [4]int64 {
	return [4]int64{inst.MemoHits.Value(), inst.MemoMisses.Value(),
		inst.LocalShortcuts.Value(), inst.BroadcastsSkipped.Value()}
}

// TestInstrumentTallies holds the per-run tallies to what counting
// every event recorded: TD-Auto (which picks TD-CMDP) on L9 and L10
// under 2f with exact LUBM-1 statistics advances each metric by the
// pinned amount, and so does a run that trips its memo budget.
func TestInstrumentTallies(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	m, err := partition.ByName("2f")
	if err != nil {
		t.Fatal(err)
	}
	input := func(name string) *Input {
		q := lubm.Query(name)
		st, err := stats.Collect(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		views, err := querygraph.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := stats.NewEstimator(q, st)
		if err != nil {
			t.Fatal(err)
		}
		return &Input{Query: q, Views: views, Est: est, Params: cost.Default, Method: m}
	}
	inst := NewInstruments(obs.NewRegistry())
	for _, tc := range []struct {
		name   string
		budget int64 // memo entries the run may keep; 0 = unlimited
		want   [4]int64
	}{
		{"L9", 0, [4]int64{24671, 703, 134, 2055}},
		{"L10", 0, [4]int64{349942, 4704, 892, 29351}},
		{"L10", 500, [4]int64{15437, 508, 99, 1303}},
	} {
		in := input(tc.name)
		in.Inst = inst
		if tc.budget > 0 {
			in.Gauge = resilience.NewBudget(tc.budget*memoEntryBytes, 0).NewGauge()
		}
		before := tallies(inst)
		_, err := Optimize(context.Background(), in, TDAuto)
		if tc.budget > 0 != errors.Is(err, resilience.ErrBudgetExceeded) {
			t.Fatalf("%s, budget %d entries: err = %v", tc.name, tc.budget, err)
		}
		after := tallies(inst)
		var got [4]int64
		for i := range got {
			got[i] = after[i] - before[i]
		}
		if got != tc.want {
			t.Errorf("%s, budget %d entries: hits, misses, shortcuts, skipped broadcasts = %v, want %v",
				tc.name, tc.budget, got, tc.want)
		}
	}
}
