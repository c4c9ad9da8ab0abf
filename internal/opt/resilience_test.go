package opt

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

func TestGreedyProducesValidPlan(t *testing.T) {
	for name, q := range map[string]int{"chain": 0, "cycle": 1, "star": 2} {
		t.Run(name, func(t *testing.T) {
			query := chainQuery(8)
			switch q {
			case 1:
				query = cycleQuery(8)
			case 2:
				query = starQuery(8)
			}
			in := makeInput(t, query, 7, partition.HashSO)
			res, err := Optimize(context.Background(), in, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			if res.Used != Greedy {
				t.Fatalf("Used = %v, want Greedy", res.Used)
			}
			if err := res.Plan.Validate(); err != nil {
				t.Fatalf("invalid greedy plan: %v", err)
			}
			if got := res.Plan.Set.Len(); got != 8 {
				t.Fatalf("plan covers %d patterns, want 8", got)
			}
			// Greedy is deterministic: a second run yields the same cost.
			res2, err := Optimize(context.Background(), in, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Plan.Cost != res.Plan.Cost {
				t.Fatalf("greedy not deterministic: %v vs %v", res.Plan.Cost, res2.Plan.Cost)
			}
		})
	}
}

func TestGreedyNeverBeatenByTDCMD(t *testing.T) {
	// TD-CMD is exhaustive over CP-free k-ary plans; greedy's left-deep
	// chain must never cost less (sanity of shared cost plumbing).
	for seed := int64(1); seed <= 5; seed++ {
		in := makeInput(t, chainQuery(7), seed, partition.Method{})
		exact, err := Optimize(context.Background(), in, TDCMD)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := Optimize(context.Background(), in, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Plan.Cost < exact.Plan.Cost-1e-9 {
			t.Fatalf("seed %d: greedy cost %v beats exhaustive %v", seed, greedy.Plan.Cost, exact.Plan.Cost)
		}
	}
}

func TestOptPanicRecoveredSequential(t *testing.T) {
	in := makeInput(t, chainQuery(6), 11, partition.Method{})
	in.Faults = faultinject.New(1)
	in.Faults.Arm(faultinject.OptPanic, 1)
	_, err := Optimize(context.Background(), in, TDCMD)
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *resilience.PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	if _, ok := pe.Value.(faultinject.Injected); !ok {
		t.Fatalf("panic value %v (%T), want faultinject.Injected", pe.Value, pe.Value)
	}
}

func TestOptBudgetTrip(t *testing.T) {
	in := makeInput(t, chainQuery(10), 13, partition.Method{})
	in.Gauge = resilience.NewBudget(4*memoEntryBytes, 0).NewGauge()
	_, err := Optimize(context.Background(), in, TDCMD)
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Site != "memo" {
		t.Fatalf("err = %+v, want *BudgetError at site memo", err)
	}
	// Everything the failed run reserved must have been released.
	if got := in.Gauge.Used(); got != 0 {
		t.Fatalf("gauge still holds %d bytes after failed run", got)
	}
}

func TestOptBudgetFaultWithoutGauge(t *testing.T) {
	in := makeInput(t, chainQuery(6), 17, partition.Method{})
	in.Faults = faultinject.New(2)
	in.Faults.Arm(faultinject.OptBudget, 10)
	_, err := Optimize(context.Background(), in, TDCMD)
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestOptBudgetEnoughForSmallQuery(t *testing.T) {
	in := makeInput(t, chainQuery(5), 19, partition.Method{})
	in.Gauge = resilience.NewBudget(1<<20, 0).NewGauge()
	res, err := Optimize(context.Background(), in, TDCMD)
	if err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := in.Gauge.Used(); got != 0 {
		t.Fatalf("gauge holds %d bytes after successful run (memo must be released)", got)
	}
}

// TestParallelCancellationExpired asserts a run refuses an
// already-expired context before any work.
func TestParallelCancellationExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := makeInput(t, starQuery(14), 1, partition.Method{})
	start := time.Now()
	_, err := Optimize(ctx, in, TDCMD)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("expired context took %v to be honored", d)
	}
}

// TestParallelCancellationDeadline asserts a deadline that expires
// mid-enumeration stops the run. Star-16 under unpruned TD-CMD
// enumerates billions of cmds — it can only return quickly by
// cancellation.
func TestParallelCancellationDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	in := makeInput(t, starQuery(16), 1, partition.Method{})
	start := time.Now()
	_, err := Optimize(ctx, in, TDCMD)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline took %v to stop the run", d)
	}
}
