package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/workload/lubm"
)

const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// hotOOQuery is an object-object star: under subject-hash-based
// partitionings the two patterns' bindings meet only after a
// repartition on ?c.
var hotOOQuery = fmt.Sprintf(
	`SELECT * WHERE { ?s <%stakesCourse> ?c . ?t <%steacherOf> ?c . }`, ub, ub)

func lubmDataset(tb testing.TB) *Dataset {
	tb.Helper()
	ds := lubm.Generate(lubm.Config{Universities: 5, Seed: 7})
	return ds
}

// withProcs runs the rest of the test at GOMAXPROCS n — the setting
// that varies how the engine's per-node workers are scheduled — and
// restores the previous value when it ends. Tests that call it must not
// run in parallel with others.
func withProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func mustMethod(tb testing.TB, name string) Method {
	tb.Helper()
	m, err := PartitionMethod(name)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func equalResultRows(a, b *ExecResult) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// recoveryRounds reads the recovery_rounds_total and
// recovery_failed_rounds_total counters through the system's metrics
// registry; the system must be opened WithObservability.
func recoveryRounds(sys *System) (applied, failed int64) {
	r := sys.MetricsRegistry()
	return r.Counter("recovery_rounds_total", "").Value(), r.Counter("recovery_failed_rounds_total", "").Value()
}

// strandedNode returns the lowest node holding a triple no other node
// has a copy of, -1 when every node is covered.
func strandedNode(sys *System) int {
	view := sys.engine.Snapshot().View()
	for node := 0; node < view.Nodes(); node++ {
		if !nodeCovered(view, node) {
			return node
		}
	}
	return -1
}

// killNode returns a fault set under which node fails every scan and
// shuffle.
func killNode(node int) *FaultSet {
	f := NewFaultSet(int64(node))
	f.Arm(FaultNodeScan(node), 1)
	f.Arm(FaultNodeShuffle(node), 1)
	return f
}

// TestAdaptiveMigrationProperty is the recovery soundness sweep: under
// every partitioning method and GOMAXPROCS setting, a workload served
// with one node dead (the lowest one holding unreplicated triples, if
// any) returns rows bit-identical to the reference evaluator or fails
// fast as unavailable. The first unavailable failure triggers a
// recovery round; after it every query succeeds with the node still
// dead, and the replication stays within the recovery budget.
func TestAdaptiveMigrationProperty(t *testing.T) {
	ds := lubmDataset(t)
	queries := []string{
		hotOOQuery,
		fmt.Sprintf(`SELECT * WHERE { ?x <%sadvisor> ?p . ?y <%sworksFor> ?d . ?p <%sworksFor> ?d . }`, ub, ub, ub),
		fmt.Sprintf(`SELECT * WHERE { ?s <%smemberOf> ?d . ?t <%sworksFor> ?d . }`, ub, ub),
	}
	want := make([]*ExecResult, len(queries))
	for i, src := range queries {
		ref, err := Reference(ds, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}
	methods, procsList := []string{"hash-so", "2f", "path-bmc", "un-1hop"}, []int{1, 2, 4, 8}
	ran, recovered := 0, false
	for _, method := range methods {
		for _, procs := range procsList {
			t.Run(fmt.Sprintf("%s/p%d", method, procs), func(t *testing.T) {
				ran++
				withProcs(t, procs)
				sys, err := Open(ds,
					WithMethod(mustMethod(t, method)),
					WithNodes(10),
					WithPlanCache(32),
					failoverBreakerOff,
					WithObservability(),
				)
				if err != nil {
					t.Fatal(err)
				}
				base := sys.ReplicationFactor()
				faults := killNode(max(strandedNode(sys), 0))
				ctx := context.Background()
				unavailable := 0
				for round := 0; round < 2; round++ {
					for i, src := range queries {
						res, err := sys.Run(ctx, src, WithFaultInjection(faults))
						sys.WaitForMigrations()
						if errors.Is(err, ErrUnavailable) && unavailable == 0 {
							unavailable++
							continue
						}
						if err != nil {
							t.Fatalf("round %d query %d: %v", round, i, err)
						}
						if !equalResultRows(res, want[i]) {
							t.Fatalf("round %d query %d: rows diverged (%d vs %d)",
								round, i, len(res.Rows), len(want[i].Rows))
						}
					}
				}
				applied, failed := recoveryRounds(sys)
				if applied != int64(unavailable) || failed != 0 {
					t.Fatalf("%d unavailable runs, %d recovery rounds applied and %d failed", unavailable, applied, failed)
				}
				recovered = recovered || applied > 0
				if got := sys.ReplicationFactor(); got > base+partition.RecoveryBudget+1e-9 {
					t.Fatalf("replication factor %v exceeds base %v + budget %v", got, base, partition.RecoveryBudget)
				}
			})
		}
	}
	if ran == len(methods)*len(procsList) && !recovered {
		t.Error("no method stranded a triple the workload needs — the sweep never ran a recovery round")
	}
}

// TestAdaptiveMemoryBudgetIsolation: a total memory budget too small
// for the overlay rebuilds fails the recovery round — counted, never
// fatal — while serving keeps working on the old placement; once the
// memory is back the same round succeeds, and the dead node's queries
// are served from the new copies.
func TestAdaptiveMemoryBudgetIsolation(t *testing.T) {
	ds := lubmDataset(t)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(10),
		WithMemoryBudget(0, 64<<20),
		failoverBreakerOff,
		WithObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	dead := strandedNode(sys)
	if dead < 0 {
		t.Fatal("2f replicates every triple of LUBM — no recovery to starve")
	}
	hold := sys.budget.NewGauge()
	if err := hold.Reserve("test-hold", 64<<20-1024); err != nil {
		t.Fatal(err)
	}
	sys.recovery.trigger(&UnavailableError{Nodes: []int{dead}})
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied != 0 || failed != 1 {
		t.Fatalf("starved round: %d applied, %d failed; want 0 and 1", applied, failed)
	}
	hold.Reset()
	sys.recovery.trigger(&UnavailableError{Nodes: []int{dead}})
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied != 1 || failed != 1 {
		t.Fatalf("after release: %d applied, %d failed; want 1 and 1", applied, failed)
	}
	want, err := Reference(ds, mustParse(t, hotOOQuery))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), hotOOQuery, WithFaultInjection(killNode(dead)))
	if err != nil {
		t.Fatal(err)
	}
	if !equalResultRows(res, want) || res.Failovers == 0 {
		t.Fatalf("node %d dead after recovery: rows equal=%v, %d failovers", dead, equalResultRows(res, want), res.Failovers)
	}
}

// TestMigrationAccountsEngineCopies: with writes applied before the
// recovery round, the round adds exactly the copies of the dead node's
// stranded fragment triples to the engine's overlays, never a copy of
// an ingested triple. ReplicationFactor reads the serving snapshot: at
// Open it is the method's own factor, after the round the view's stored
// copies over the dataset's size.
func TestMigrationAccountsEngineCopies(t *testing.T) {
	ds := migDataset()
	const nodes = 4
	method := mustPartition(t, "2f", ds, nodes)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(nodes),
		failoverBreakerOff,
		WithObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got, want := sys.ReplicationFactor(), method.ReplicationFactor(ds.Len()); got != want {
		t.Errorf("replication factor at Open %v, the method's is %v", got, want)
	}
	addMigWrites(ds)
	dead := strandedNode(sys)
	if dead < 0 {
		t.Fatal("no node holds an unreplicated triple")
	}
	before := sys.engine.Snapshot().View()
	stranded := 0
	for _, tr := range before.Base[dead] {
		covered := false
		for node := 0; node < nodes; node++ {
			covered = covered || node != dead && before.Holds(node, tr)
		}
		if !covered {
			stranded++
		}
	}
	sys.recovery.trigger(&UnavailableError{Nodes: []int{dead}})
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied != 1 || failed != 0 {
		t.Fatalf("%d rounds applied, %d failed; want 1 and 0", applied, failed)
	}
	view := sys.engine.Snapshot().View()
	overlaid := 0
	for _, ts := range view.Overlay {
		overlaid += len(ts)
		for _, tr := range ts {
			for _, chunk := range view.Delta {
				for _, d := range chunk {
					if d == tr {
						t.Errorf("recovery copied the ingested triple %s", ds.String(tr))
					}
				}
			}
		}
	}
	if overlaid != stranded {
		t.Errorf("the overlays gained %d copies, node %d stranded %d triples", overlaid, dead, stranded)
	}
	if got, want := sys.ReplicationFactor(), float64(view.Copies())/float64(ds.Len()); got != want {
		t.Errorf("replication factor %v, the view stores %v", got, want)
	}
}

// TestRecoveryKeepsCachedPlans: a recovery round changes which nodes
// hold copies, not the triples, so it keeps every cached plan. A warm
// shape whose predicate a dead node strands fails as unavailable,
// triggers the round, and is then served from the cache — with the
// node healthy and with it dead — with rows equal to the reference.
func TestRecoveryKeepsCachedPlans(t *testing.T) {
	ds := failoverDataset()
	sys, err := Open(ds, WithNodes(4), WithPlanCache(8), failoverBreakerOff, WithObservability())
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT * WHERE { ?x <http://knows> ?y . }`
	ctx := context.Background()
	if _, err := sys.Run(ctx, src); err != nil {
		t.Fatal(err)
	}
	dead := -1
	for node := 0; node < 4 && dead < 0; node++ {
		if _, err := sys.Run(ctx, src, WithFaultInjection(killNode(node))); errors.Is(err, ErrUnavailable) {
			dead = node
		}
	}
	if dead < 0 {
		t.Fatal("no dead node stranded a <knows> triple")
	}
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied != 1 || failed != 0 {
		t.Fatalf("%d recovery rounds applied, %d failed; want 1 and 0", applied, failed)
	}
	want, err := Reference(ds, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []*FaultSet{nil, killNode(dead)} {
		res, err := sys.Run(ctx, src, WithFaultInjection(faults))
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheInfo.Hit {
			t.Errorf("node %d dead: %v; the run after the round missed the plan cache", dead, faults != nil)
		}
		sameRows(t, fmt.Sprintf("node %d dead: %v", dead, faults != nil), res, want)
	}
	if c := sys.CacheStats(); c.Invalidations != 0 || c.Misses != 1 {
		t.Errorf("cache counters %+v, want one miss and no invalidation", c)
	}
}

func mustPartition(tb testing.TB, method string, ds *Dataset, nodes int) *partition.Placement {
	tb.Helper()
	p, err := mustMethod(tb, method).Partition(ds, nodes)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}
