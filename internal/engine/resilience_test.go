package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/resilience/faultinject"
	"sparqlopt/internal/sparql"
)

func resilienceFixture(t *testing.T) (*Engine, *opt.Result, *sparql.Query) {
	t.Helper()
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <worksFor> ?o . ?b <worksFor> ?o . ?a <knows> ?b . ?o <inCity> ?c . }`)
	m := partition.HashSO
	placement, err := m.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	return e, optimizeFor(t, ds, q, m, opt.TDCMD), q
}

// A panic on a per-node worker goroutine must fail the query with a
// typed error carrying the stack — and must not crash the process.
// This pins the engine's panic-isolation contract.
func TestEnginePanicIsolatedPerNode(t *testing.T) {
	e, res, q := resilienceFixture(t)
	r := obs.NewRegistry()
	e.SetInstruments(NewInstruments(r))
	faults := faultinject.New(1)
	faults.Arm(faultinject.EnginePanic, 1)
	_, err := e.ExecuteEnv(context.Background(), res.Plan, q, ExecEnv{Faults: faults})
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
	if got := r.Counter("resilience_panics_recovered_total", resilience.PanicsRecoveredHelp).Value(); got < 1 {
		t.Fatalf("resilience_panics_recovered_total = %v, want >= 1", got)
	}
	// The engine must still serve clean queries afterwards.
	if _, err := e.Execute(context.Background(), res.Plan, q); err != nil {
		t.Fatalf("engine poisoned by recovered panic: %v", err)
	}
}

func TestEngineBudgetTrip(t *testing.T) {
	e, res, q := resilienceFixture(t)
	g := resilience.NewBudget(64, 0).NewGauge() // 64 bytes: the first scan trips
	_, err := e.ExecuteEnv(context.Background(), res.Plan, q, ExecEnv{Gauge: g})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Site == "" {
		t.Fatalf("err = %+v, want *BudgetError with a site", err)
	}
}

func TestEngineBudgetFaultNamesOperator(t *testing.T) {
	e, res, q := resilienceFixture(t)
	faults := faultinject.New(2)
	faults.Arm(faultinject.EngineBudget, 1)
	_, err := e.ExecuteEnv(context.Background(), res.Plan, q, ExecEnv{Faults: faults})
	var be *resilience.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Site == "" {
		t.Fatal("injected budget trip did not name the operator")
	}
}

func TestEngineSlowFaultStaysCancellable(t *testing.T) {
	e, res, q := resilienceFixture(t)
	faults := faultinject.New(3)
	faults.ArmDelay(faultinject.EngineSlow, 1, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.ExecuteEnv(ctx, res.Plan, q, ExecEnv{Faults: faults})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled operator ignored cancellation for %v", elapsed)
	}
}

// A generously budgeted run must behave bit-identically to an
// unbudgeted one, and return every reservation at Reset.
func TestEngineBudgetedRunIdentical(t *testing.T) {
	e, res, q := resilienceFixture(t)
	want, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilience.NewBudget(1<<30, 1<<30)
	g := b.NewGauge()
	got, err := e.ExecuteEnv(context.Background(), res.Plan, q, ExecEnv{Gauge: g})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, want, "budgeted")
	if g.Used() == 0 {
		t.Fatal("gauge charged nothing — engine accounting not wired")
	}
	g.Reset()
	if b.Used() != 0 {
		t.Fatalf("budget still holds %d bytes after Reset", b.Used())
	}
}
