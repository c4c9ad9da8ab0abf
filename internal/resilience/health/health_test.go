package health

import (
	"sync"
	"testing"
	"time"
)

// manualClock is a deterministic test clock.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1000, 0)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testTracker(clk *manualClock) *Tracker {
	return New(4, Config{
		ConsecutiveFailures: 3,
		OpenFor:             time.Second,
		ProbeSuccesses:      2,
		Now:                 clk.now,
	})
}

func TestHealthConsecutiveFailuresTrip(t *testing.T) {
	clk := newManualClock()
	tr := testTracker(clk)
	for i := 0; i < 2; i++ {
		tr.ReportFailure(1)
		if got := tr.State(1); got != Healthy {
			t.Fatalf("after %d failures: state = %v, want healthy", i+1, got)
		}
	}
	tr.ReportFailure(1)
	if got := tr.State(1); got != Open {
		t.Fatalf("after 3 consecutive failures: state = %v, want open", got)
	}
	if tr.Allow(1) {
		t.Error("open breaker allowed an operation before OpenFor elapsed")
	}
	// Other nodes are untouched.
	if got := tr.State(0); got != Healthy {
		t.Errorf("node 0 state = %v, want healthy", got)
	}
	if !tr.Allow(0) {
		t.Error("healthy node 0 rejected")
	}
}

// TestHealthSuccessResetsStreak: only failures in a row trip the
// breaker; a success between them starts the count again, however many
// failures came before.
func TestHealthSuccessResetsStreak(t *testing.T) {
	tr := testTracker(newManualClock())
	for i := 0; i < 10; i++ {
		tr.ReportFailure(2)
		tr.ReportFailure(2)
		tr.ReportSuccess(2)
	}
	if got := tr.State(2); got != Healthy {
		t.Fatalf("state = %v after interleaved failures, want healthy", got)
	}
}

func TestHealthHalfOpenProbeRecovery(t *testing.T) {
	clk := newManualClock()
	tr := testTracker(clk)
	for i := 0; i < 3; i++ {
		tr.ReportFailure(3)
	}
	if got := tr.State(3); got != Open {
		t.Fatalf("state = %v, want open", got)
	}
	if tr.RetryIn(3) != time.Second {
		t.Errorf("RetryIn = %v, want 1s", tr.RetryIn(3))
	}

	// Before OpenFor: rejected, still open.
	clk.advance(500 * time.Millisecond)
	if tr.Allow(3) {
		t.Fatal("allowed before OpenFor elapsed")
	}
	if got := tr.RetryIn(3); got != 500*time.Millisecond {
		t.Errorf("RetryIn = %v, want 500ms", got)
	}

	// After OpenFor: Allow transitions to half-open and admits.
	clk.advance(500 * time.Millisecond)
	if !tr.Allow(3) {
		t.Fatal("probe rejected after OpenFor elapsed")
	}
	if got := tr.State(3); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}

	// One success is not enough (ProbeSuccesses=2); the second closes.
	tr.ReportSuccess(3)
	if got := tr.State(3); got != HalfOpen {
		t.Fatalf("state after 1 probe success = %v, want half-open", got)
	}
	tr.ReportSuccess(3)
	if got := tr.State(3); got != Healthy {
		t.Fatalf("state after %d probe successes = %v, want healthy", 2, got)
	}
	// Recovered node is fully reset: three fresh failures re-trip.
	for i := 0; i < 3; i++ {
		tr.ReportFailure(3)
	}
	if got := tr.State(3); got != Open {
		t.Fatalf("recovered breaker did not re-trip: %v", got)
	}
}

func TestHealthHalfOpenFailureReopens(t *testing.T) {
	clk := newManualClock()
	tr := testTracker(clk)
	for i := 0; i < 3; i++ {
		tr.ReportFailure(0)
	}
	clk.advance(time.Second)
	if !tr.Allow(0) {
		t.Fatal("probe rejected")
	}
	tr.ReportFailure(0) // probe failed
	if got := tr.State(0); got != Open {
		t.Fatalf("state = %v, want open after failed probe", got)
	}
	// The cool-down restarted: still rejected before another OpenFor.
	clk.advance(500 * time.Millisecond)
	if tr.Allow(0) {
		t.Error("allowed before the restarted cool-down elapsed")
	}
}

func TestHealthStatusAndDown(t *testing.T) {
	clk := newManualClock()
	tr := testTracker(clk)
	if len(tr.Down()) > 0 {
		t.Fatal("fresh tracker reports a node down")
	}
	for i := 0; i < 3; i++ {
		tr.ReportFailure(2)
	}
	tr.ReportSuccess(0)
	if len(tr.Down()) == 0 {
		t.Fatal("no node down with node 2 open")
	}
	down := tr.Down()
	if len(down) != 1 || down[0] != 2 {
		t.Fatalf("Down() = %v, want [2]", down)
	}
	st := tr.Status()
	if len(st) != 4 {
		t.Fatalf("Status() has %d entries, want 4", len(st))
	}
	if st[2].State != Open || st[2].Failures != 3 {
		t.Errorf("node 2 status = %+v, want open with 3 failures", st[2])
	}
	if st[0].State != Healthy || st[0].Successes != 1 {
		t.Errorf("node 0 status = %+v, want healthy with 1 success", st[0])
	}
}

func TestHealthNilAndOutOfRange(t *testing.T) {
	var tr *Tracker
	if !tr.Allow(0) || len(tr.Down()) > 0 || tr.State(5) != Healthy || tr.Nodes() != 0 {
		t.Error("nil tracker must behave as all-healthy")
	}
	tr.ReportFailure(0) // must not panic
	tr.ReportSuccess(0)
	if tr.Down() != nil || tr.Status() != nil || tr.RetryIn(0) != 0 {
		t.Error("nil tracker must return empty snapshots")
	}

	real := New(2, Config{})
	real.ReportFailure(-1)
	real.ReportFailure(7)
	if !real.Allow(-1) || !real.Allow(7) {
		t.Error("out-of-range nodes must be admitted")
	}
	if len(real.Down()) > 0 {
		t.Error("out-of-range reports must not affect tracked nodes")
	}
}

func TestHealthStateString(t *testing.T) {
	cases := map[State]string{Healthy: "healthy", Open: "open", HalfOpen: "half-open", State(9): "state(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
