package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlopt/internal/obs"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(2, 4)
	rel1, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	rel2, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	rel1()
	rel1() // double release must be a no-op
	rel2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1, 0)
	rel, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	defer rel()

	_, err = a.Acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if oe.InFlight != 1 {
		t.Fatalf("InFlight in error = %d, want 1", oe.InFlight)
	}
}

func TestAdmissionNeverAdmitsExpired(t *testing.T) {
	a := NewAdmission(1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Acquire(ctx, 1); err == nil {
		t.Fatal("expired context admitted")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Fatalf("state leaked: inflight=%d queued=%d", a.InFlight(), a.Queued())
	}
}

func TestAdmissionQueuedWaiterCanceled(t *testing.T) {
	a := NewAdmission(1, 4)
	rel, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, 1)
		done <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter err = %v, want canceled", err)
	}
	rel()
	// The canceled waiter must not have consumed the slot.
	rel2, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	rel2()
}

func TestAdmissionFIFOOrder(t *testing.T) {
	a := NewAdmission(1, 8)
	rel, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r()
		}()
		// Serialize enqueue so FIFO order is observable.
		waitFor(t, func() bool { return a.Queued() == int64(i+1) })
	}
	rel()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO 0..3", order)
		}
	}
}

func TestAdmissionConcurrencyNeverExceeded(t *testing.T) {
	const limit = 3
	a := NewAdmission(limit, 64)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	if got := max.Load(); got > limit {
		t.Fatalf("observed %d concurrent holders, limit %d", got, limit)
	}
}

// TestAdmissionRetryAfterScalesWithDepth pins the satellite behavior:
// the retry-after hint grows with the queue depth ahead of the
// rejected caller instead of being a constant.
func TestAdmissionRetryAfterScalesWithDepth(t *testing.T) {
	a := NewAdmission(4, 0)
	shallow := a.retryAfter(0)
	deep := a.retryAfter(40) // ten extra drain waves of 4
	if shallow <= 0 {
		t.Fatalf("retryAfter(0) = %v, want > 0", shallow)
	}
	if deep <= shallow {
		t.Errorf("retryAfter(40) = %v not > retryAfter(0) = %v", deep, shallow)
	}
	// Depth scaling dominates jitter: 10 extra waves must be at least
	// 5 hold-times apart even in the worst jitter draw.
	if deep-shallow < 5*10*time.Millisecond {
		t.Errorf("depth scaling too weak: Δ = %v over 10 waves", deep-shallow)
	}
	// Jitter decorrelates identical rejections without reordering depths.
	again := a.retryAfter(0)
	if again == shallow {
		t.Log("two rejections at equal depth drew equal jitter (possible, just unlikely)")
	}
	if again >= deep {
		t.Errorf("jitter reordered depths: retryAfter(0) = %v ≥ retryAfter(40) = %v", again, deep)
	}
}

func TestBudgetPerQueryTrip(t *testing.T) {
	b := NewBudget(100, 0)
	g := b.NewGauge()
	if err := g.Reserve("scan", 60); err != nil {
		t.Fatalf("reserve 60: %v", err)
	}
	err := g.Reserve("hash-join", 60)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not *BudgetError", err)
	}
	if be.Site != "hash-join" || be.Shared {
		t.Fatalf("BudgetError = %+v, want Site=hash-join Shared=false", be)
	}
	// Failed reservation must charge nothing.
	if g.Used() != 60 || b.Used() != 60 {
		t.Fatalf("used gauge=%d budget=%d, want 60/60", g.Used(), b.Used())
	}
	g.Release(60)
	if g.Used() != 0 || b.Used() != 0 {
		t.Fatalf("after release gauge=%d budget=%d", g.Used(), b.Used())
	}
}

func TestBudgetSharedTrip(t *testing.T) {
	r := obs.NewRegistry()
	b := NewBudget(0, 100)
	b.SetTripCounter(r.Counter("resilience_budget_trips_total", "test"))
	g1, g2 := b.NewGauge(), b.NewGauge()
	if err := g1.Reserve("memo", 70); err != nil {
		t.Fatalf("g1 reserve: %v", err)
	}
	err := g2.Reserve("memo", 70)
	var be *BudgetError
	if !errors.As(err, &be) || !be.Shared {
		t.Fatalf("err = %v, want shared *BudgetError", err)
	}
	if b.Used() != 70 {
		t.Fatalf("budget used = %d, want 70 (rollback failed)", b.Used())
	}
	if got := r.Counter("resilience_budget_trips_total", "test").Value(); got != 1 {
		t.Fatalf("trip counter = %v, want 1", got)
	}
	g1.Reset()
	g2.Reset()
	if b.Used() != 0 {
		t.Fatalf("budget used after reset = %d", b.Used())
	}
}

func TestBudgetResetBetweenAttempts(t *testing.T) {
	b := NewBudget(100, 200)
	g := b.NewGauge()
	if err := g.Reserve("memo", 90); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	g.Reset()
	// After a reset the full per-query budget is available again.
	if err := g.Reserve("memo", 90); err != nil {
		t.Fatalf("reserve after reset: %v", err)
	}
	g.Reset()
}

func TestNilBudgetAndGauge(t *testing.T) {
	var b *Budget
	g := b.NewGauge()
	if g != nil {
		t.Fatalf("nil budget produced non-nil gauge")
	}
	if err := g.Reserve("x", 1<<40); err != nil {
		t.Fatalf("nil gauge reserve: %v", err)
	}
	g.Release(1)
	g.Reset()
	if NewBudget(0, 0) != nil {
		t.Fatal("NewBudget(0,0) should be nil (disabled)")
	}
}

func TestCatchPanic(t *testing.T) {
	var hookRan bool
	run := func() (err error) {
		defer CatchPanic(&err, func() { hookRan = true })
		panic("boom")
	}
	err := run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "boom" {
		t.Fatalf("Value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "TestCatchPanic") {
		t.Fatalf("stack not captured: %q", pe.Stack)
	}
	if !hookRan {
		t.Fatal("onRecover hook did not run")
	}
}

func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("inner")
	run := func() (err error) {
		defer CatchPanic(&err, nil)
		panic(fmt.Errorf("wrap: %w", sentinel))
	}
	if err := run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want chain containing sentinel", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
