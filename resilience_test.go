package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
)

// chaosSeed derives the run's base seed from CHAOS_SEED so `make
// chaos` can sweep seeds without recompiling. The default reproduces
// the checked-in behavior exactly.
func chaosSeed(tb testing.TB) int64 {
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		tb.Fatalf("CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}

// chaosQueries are the serving mix; every goroutine class runs each
// shape in turn. The optimizer-fault classes plan under TD-CMD, a
// plan-cache slot nothing else fills, so their faults reach the
// optimizer on every run instead of hitting a cached plan.
var chaosQueries = []string{
	`SELECT * WHERE { ?x <http://knows> ?y . ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`,
	`SELECT ?x ?y WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`,
	`SELECT * WHERE { ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`,
}

// chaosClass is one goroutine's behavior in the chaos mix: which fault
// it injects into its own runs and what outcome that entitles it to.
type chaosClass struct {
	name string
	arm  func(*FaultSet)
	// wantErr checks the per-run error (nil-able). wantRows reports
	// whether a successful run must still produce the reference rows.
	wantErr  func(tb testing.TB, id string, err error)
	wantRows bool
	// mayFail permits runs to fail (fault classes that kill the query).
	mayFail bool
	// deadline, when set, bounds each run (the slow-operator class).
	deadline time.Duration
	// opts are the class's own run options.
	opts []RunOption
}

func wantNoError(tb testing.TB, id string, err error) {
	if err != nil {
		tb.Errorf("%s: unexpected error %v", id, err)
	}
}

func wantPanicError(tb testing.TB, id string, err error) {
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		tb.Errorf("%s: err = %v (%T), want *resilience.PanicError", id, err, err)
		return
	}
	if len(pe.Stack) == 0 {
		tb.Errorf("%s: panic recovered without a stack", id)
	}
	if _, ok := pe.Value.(faultinject.Injected); !ok {
		tb.Errorf("%s: panic value %v (%T), want faultinject.Injected", id, pe.Value, pe.Value)
	}
}

func wantBudgetError(tb testing.TB, id string, err error) {
	if !errors.Is(err, ErrBudgetExceeded) {
		tb.Errorf("%s: err = %v, want ErrBudgetExceeded", id, err)
		return
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Site == "" {
		tb.Errorf("%s: budget error %v does not name its site", id, err)
	}
}

func wantDeadlineError(tb testing.TB, id string, err error) {
	if !errors.Is(err, context.DeadlineExceeded) {
		tb.Errorf("%s: err = %v, want context.DeadlineExceeded", id, err)
	}
}

// chaosClasses is the full mix. Fault classes arm their site on every
// hit, so every one of their runs misbehaves; the clean class runs
// un-faulted next to them and must come through bit-identical.
var chaosClasses = []chaosClass{
	{name: "clean", arm: func(*FaultSet) {}, wantErr: wantNoError, wantRows: true},
	{
		name:     "opt-panic",
		arm:      func(f *FaultSet) { f.Arm(FaultOptPanic, 1) },
		wantErr:  wantNoError, // degrades down the ladder to greedy
		wantRows: true,
		opts:     []RunOption{TDCMD}, // a plan-cache miss: the optimizer runs
	},
	{
		name:     "opt-budget",
		arm:      func(f *FaultSet) { f.Arm(FaultOptBudget, 1) },
		wantErr:  wantNoError, // degrades down the ladder to greedy
		wantRows: true,
		opts:     []RunOption{TDCMD}, // a plan-cache miss: the optimizer runs
	},
	{
		name:    "engine-panic",
		arm:     func(f *FaultSet) { f.Arm(FaultEnginePanic, 1) },
		wantErr: wantPanicError,
		mayFail: true,
	},
	{
		name:    "engine-budget",
		arm:     func(f *FaultSet) { f.Arm(FaultEngineBudget, 1) },
		wantErr: wantBudgetError,
		mayFail: true,
	},
	{
		name:     "deadline-slow",
		arm:      func(f *FaultSet) { f.ArmDelay(FaultEngineSlow, 1, 5*time.Second) },
		wantErr:  wantDeadlineError,
		mayFail:  true,
		deadline: 30 * time.Millisecond,
	},
}

func chaosRowsEqual(a, b [][]rdf.TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestChaosServing is the deterministic chaos suite: 64 goroutines
// hammer one System while most of them inject faults into their own
// runs. It asserts the blast radius of every fault stays inside the
// query that injected it — clean queries keep returning bit-identical
// rows, failures surface as typed errors, the resilience_* counters
// account for exactly what happened, and the System serves healthy
// queries afterwards as if nothing had.
func TestChaosServing(t *testing.T) {
	seed := chaosSeed(t)
	sys, err := Open(tinyDataset(),
		WithNodes(3),
		WithPlanCache(64),
		WithAdmissionControl(64, 64),
		WithMemoryBudget(1<<28, 0),
		WithObservability(WithSlowQueryLog(512, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Reference rows per query, from un-faulted runs before the storm.
	want := make(map[string][][]rdf.TermID, len(chaosQueries))
	for _, src := range chaosQueries {
		res, err := sys.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Reference(sys.ds, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(ref.Rows) {
			t.Fatalf("pre-chaos run of %q: %d rows, reference %d", src, len(res.Rows), len(ref.Rows))
		}
		want[src] = res.Rows
	}

	reg := sys.MetricsRegistry()
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	admittedBefore := counter("resilience_admitted_total")
	degradedBefore := counter("resilience_degraded_total")
	panicsBefore := counter("resilience_panics_recovered_total")

	const goroutines = 64
	const itersPerGoroutine = 4
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		degradedOK int64 // successful runs that took a fallback
		sets       []*FaultSet
	)
	for i := 0; i < goroutines; i++ {
		class := chaosClasses[i%len(chaosClasses)]
		src := chaosQueries[i/len(chaosClasses)%len(chaosQueries)]
		faults := NewFaultSet(seed*1000 + int64(i))
		class.arm(faults)
		mu.Lock()
		sets = append(sets, faults)
		mu.Unlock()
		wg.Add(1)
		go func(i int, class chaosClass, src string, faults *FaultSet) {
			defer wg.Done()
			for iter := 0; iter < itersPerGoroutine; iter++ {
				id := fmt.Sprintf("g%d/%s/iter%d", i, class.name, iter)
				opts := append([]RunOption{WithFaultInjection(faults)}, class.opts...)
				if class.deadline > 0 {
					opts = append(opts, WithDeadline(class.deadline))
				}
				res, err := sys.Run(context.Background(), src, opts...)
				if err != nil && !class.mayFail {
					t.Errorf("%s: run failed: %v", id, err)
					continue
				}
				class.wantErr(t, id, err)
				if err != nil {
					continue
				}
				if class.wantRows && !chaosRowsEqual(res.Rows, want[src]) {
					t.Errorf("%s: rows diverged from the un-faulted reference", id)
				}
				if len(res.Degraded) > 0 {
					mu.Lock()
					degradedOK++
					mu.Unlock()
				}
			}
		}(i, class, src, faults)
	}
	wg.Wait()

	// Counter accounting. Every Run was admitted (capacity covers the
	// whole fleet), every fired panic was recovered exactly once, and
	// the degraded counter matches the results that reported a fallback.
	totalRuns := int64(goroutines * itersPerGoroutine)
	if got := counter("resilience_admitted_total") - admittedBefore; got != totalRuns {
		t.Errorf("admitted_total advanced by %d, want %d", got, totalRuns)
	}
	if got := counter("resilience_rejected_total"); got != 0 {
		t.Errorf("rejected_total = %d, want 0 (capacity covers the fleet)", got)
	}
	if got := counter("resilience_degraded_total") - degradedBefore; got != degradedOK {
		t.Errorf("degraded_total advanced by %d, want %d", got, degradedOK)
	}
	var firedPanics int64
	for _, f := range sets {
		firedPanics += f.Fired(FaultOptPanic) + f.Fired(FaultEnginePanic)
	}
	if got := counter("resilience_panics_recovered_total") - panicsBefore; got != firedPanics {
		t.Errorf("panics_recovered_total advanced by %d, want %d (fired panics)", got, firedPanics)
	}
	if firedPanics == 0 {
		t.Error("chaos mix fired no panics — the suite is not exercising panic recovery")
	}

	// The slow-query log survived the storm and kept the typed detail.
	var loggedDegraded, loggedErrors bool
	for _, e := range sys.SlowQueries() {
		if len(e.Degraded) > 0 {
			loggedDegraded = true
		}
		if e.Err != "" {
			loggedErrors = true
		}
	}
	if !loggedDegraded || !loggedErrors {
		t.Errorf("slow-query log: degraded=%v errors=%v, want both recorded", loggedDegraded, loggedErrors)
	}

	// The System is healthy afterwards: un-faulted serving is unchanged.
	for _, src := range chaosQueries {
		res, err := sys.Run(context.Background(), src)
		if err != nil {
			t.Fatalf("post-chaos run of %q: %v", src, err)
		}
		if !chaosRowsEqual(res.Rows, want[src]) {
			t.Errorf("post-chaos run of %q: rows diverged", src)
		}
		if len(res.Degraded) > 0 {
			t.Errorf("post-chaos run of %q degraded: %v", src, res.Degraded)
		}
	}
}

// TestChaosAdmissionRejectsWhenSaturated saturates a capacity-1 system
// with an injected slow query and asserts the overflow is rejected
// fast with the typed error and a retry-after hint — and that the
// system recovers the moment the hog is canceled.
func TestChaosAdmissionRejectsWhenSaturated(t *testing.T) {
	sys, err := Open(tinyDataset(),
		WithNodes(2),
		WithAdmissionControl(1, 0),
		WithObservability(WithSlowQueryLog(16, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	src := chaosQueries[0]
	if _, err := sys.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}

	// The hog: one query stalled by an injected slow operator, holding
	// the only admission slot until we cancel it.
	faults := NewFaultSet(chaosSeed(t))
	faults.ArmDelay(FaultEngineSlow, 1, time.Minute)
	admitted := sys.MetricsRegistry().Counter("resilience_admitted_total", "")
	admittedBefore := admitted.Value()
	hogCtx, cancelHog := context.WithCancel(context.Background())
	defer cancelHog()
	hogDone := make(chan error, 1)
	go func() {
		_, err := sys.Run(hogCtx, src, WithFaultInjection(faults))
		hogDone <- err
	}()

	// Wait for the hog to take the slot before probing — probing
	// earlier could win the slot ourselves and bounce the hog instead.
	deadline := time.Now().Add(10 * time.Second)
	for admitted.Value() == admittedBefore {
		select {
		case err := <-hogDone:
			t.Fatalf("hog exited before stalling: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("hog not admitted within 10s")
		}
		time.Sleep(time.Millisecond)
	}

	// The hog holds the only slot; every probe must bounce with the
	// typed overload error.
	var oe *resilience.OverloadError
	if _, err := sys.Run(context.Background(), src); !errors.As(err, &oe) {
		t.Fatalf("probe returned %v, want *resilience.OverloadError", err)
	}
	if !errors.Is(oe, ErrOverloaded) {
		t.Errorf("overload error does not match ErrOverloaded: %v", oe)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if got := sys.MetricsRegistry().Counter("resilience_rejected_total", "").Value(); got == 0 {
		t.Error("rejected_total = 0 after an observed rejection")
	}
	var loggedRejection bool
	for _, e := range sys.SlowQueries() {
		if e.Rejected {
			loggedRejection = true
			break
		}
	}
	if !loggedRejection {
		t.Error("slow-query log has no entry marked Rejected")
	}

	// Cancel the hog: it fails with its own context error, the slot
	// frees, and clean serving resumes.
	cancelHog()
	if err := <-hogDone; !errors.Is(err, context.Canceled) {
		t.Errorf("hog returned %v, want context.Canceled", err)
	}
	recoverDeadline := time.Now().Add(10 * time.Second)
	for {
		_, err := sys.Run(context.Background(), src)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("post-cancel run failed with %v", err)
		}
		if time.Now().After(recoverDeadline) {
			t.Fatal("system did not recover within 10s of canceling the hog")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosExpiredContextNeverAdmitted: a dead context is turned away
// at the door with its own error, not ErrOverloaded, and is never
// counted as admitted.
func TestChaosExpiredContextNeverAdmitted(t *testing.T) {
	sys, err := Open(tinyDataset(),
		WithNodes(2),
		WithAdmissionControl(2, 2),
		WithObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	counter := sys.MetricsRegistry().Counter("resilience_admitted_total", "")
	before := counter.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.Run(ctx, chaosQueries[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("dead context surfaced as overload: %v", err)
	}
	if got := counter.Value(); got != before {
		t.Errorf("admitted_total advanced by %d for a dead context", got-before)
	}
}

func mustParse(tb testing.TB, src string) *Query {
	tb.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}
