package sparqlopt

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/partition/adaptive"
	"sparqlopt/internal/workload/lubm"
)

const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// withReplicationBudget sets the advisor's replication budget, which
// Open otherwise fixes at 0.5. It must follow WithAdaptivePartitioning.
func withReplicationBudget(b float64) Option {
	return func(c *openConfig) { c.adaptive.ReplicationBudget = b }
}

// hotOOQuery is an object-object star: under subject-hash-based
// partitionings the two patterns' bindings meet only after a
// repartition on ?c — the shape the adaptive advisor mines for.
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

// TestAdaptiveShuffleElimination drives the full loop on a repeating
// hot query: observe shuffles → migrate the hot groups → serve the
// scans aligned. The repeated query's shuffle volume must collapse
// after the migration, and every run must stay bit-identical to the
// reference evaluator.
func TestAdaptiveShuffleElimination(t *testing.T) {
	ds := lubmDataset(t)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(10),
		WithPlanCache(64),
		WithAdaptivePartitioning(AdaptiveConfig{
			MinShuffledBytes: 1,
			MinQueries:       2,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(hotOOQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("reference returned no rows; query is not exercising the join")
	}
	ctx := context.Background()
	var first, last int64
	for i := 0; i < 6; i++ {
		res, err := sys.Run(ctx, hotOOQuery)
		if err != nil {
			t.Fatal(err)
		}
		sys.WaitForMigrations()
		if !equalResultRows(res, want) {
			t.Fatalf("run %d: rows diverged from reference (%d vs %d rows)", i, len(res.Rows), len(want.Rows))
		}
		t.Logf("run %d: shuffled=%d rows/%d B stats=%+v", i, res.ShuffledRows(), res.ShuffledBytes(), sys.AdvisorStats())
		if i == 0 {
			first = res.ShuffledBytes()
		}
		last = res.ShuffledBytes()
	}
	st := sys.AdvisorStats()
	if st.Migrations == 0 {
		t.Fatalf("advisor never migrated: %+v", st)
	}
	if first == 0 {
		t.Skip("plan had no repartition shuffle under this method; nothing to eliminate")
	}
	if last >= first {
		t.Fatalf("shuffle volume did not drop: first=%d last=%d", first, last)
	}
	if last != 0 {
		t.Fatalf("aligned scans should eliminate the repartition shuffle entirely, still moving %d bytes", last)
	}
	if st.AlignedHits == 0 {
		t.Fatalf("no aligned scans served after migration: %+v", st)
	}
	if inv := sys.CacheStats().Invalidations; inv == 0 {
		t.Fatal("migration bumped the epoch but the plan cache never re-optimized")
	}
}

// TestAdaptiveMigrationProperty is the migration soundness sweep:
// under every partitioning method and GOMAXPROCS setting, a workload
// aggressive enough to trigger migrations keeps returning rows
// bit-identical to the reference evaluator before, during and after
// each migration, and the total replication stays within the
// configured budget.
func TestAdaptiveMigrationProperty(t *testing.T) {
	ds := lubmDataset(t)
	queries := []string{
		hotOOQuery,
		fmt.Sprintf(`SELECT * WHERE { ?x <%sadvisor> ?p . ?y <%sworksFor> ?d . ?p <%sworksFor> ?d . }`, ub, ub, ub),
		fmt.Sprintf(`SELECT * WHERE { ?s <%smemberOf> ?d . ?t <%sworksFor> ?d . }`, ub, ub),
	}
	type wantRows struct {
		rows *ExecResult
	}
	want := make([]wantRows, len(queries))
	for i, src := range queries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wantRows{rows: ref}
	}
	const budget = 0.6
	for _, method := range []string{"hash-so", "2f", "path-bmc", "un-1hop"} {
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", method, procs), func(t *testing.T) {
				withProcs(t, procs)
				sys, err := Open(ds,
					WithMethod(mustMethod(t, method)),
					WithNodes(10),
					WithPlanCache(32),
					WithAdaptivePartitioning(AdaptiveConfig{
						MinShuffledBytes: 1,
						MinQueries:       1,
					}),
					withReplicationBudget(budget),
				)
				if err != nil {
					t.Fatal(err)
				}
				base := mustPartition(t, method, ds, 10).ReplicationFactor(ds.Len())
				ctx := context.Background()
				for round := 0; round < 3; round++ {
					for i, src := range queries {
						res, err := sys.Run(ctx, src)
						if err != nil {
							t.Fatalf("round %d query %d: %v", round, i, err)
						}
						sys.WaitForMigrations()
						if !equalResultRows(res, want[i].rows) {
							t.Fatalf("round %d query %d: rows diverged (%d vs %d)",
								round, i, len(res.Rows), len(want[i].rows.Rows))
						}
					}
				}
				if got := sys.ReplicationFactor(); got > base+budget+1e-9 {
					t.Fatalf("replication factor %v exceeds base %v + budget %v", got, base, budget)
				}
			})
		}
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

// TestAdaptiveBackgroundMigration runs the advisor asynchronously —
// the production mode — under concurrent serving, and checks that the
// system quiesces into the aligned state without ever diverging from
// the reference. Run with -race this also proves the snapshot swap and
// epoch flip are clean.
func TestAdaptiveBackgroundMigration(t *testing.T) {
	ds := lubmDataset(t)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(10),
		WithPlanCache(32),
		WithAdaptivePartitioning(AdaptiveConfig{MinShuffledBytes: 1, MinQueries: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(hotOOQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 8; i++ {
				res, err := sys.Run(ctx, hotOOQuery)
				if err != nil {
					done <- err
					return
				}
				if !equalResultRows(res, want) {
					done <- fmt.Errorf("rows diverged mid-migration")
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sys.WaitForMigrations()
	st := sys.AdvisorStats()
	if st.Migrations == 0 {
		t.Fatalf("background advisor never migrated: %+v", st)
	}
	res, err := sys.Run(ctx, hotOOQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResultRows(res, want) {
		t.Fatal("rows diverged after background migration")
	}
	if res.ShuffledBytes() != 0 {
		t.Fatalf("quiesced system still shuffles %d bytes on the hot query", res.ShuffledBytes())
	}
}

// TestAdaptiveReplicationBudgetBlocks: with a budget too small for any
// group, the advisor must skip every candidate and never migrate.
func TestAdaptiveReplicationBudgetBlocks(t *testing.T) {
	ds := lubmDataset(t)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(10),
		WithAdaptivePartitioning(AdaptiveConfig{
			MinShuffledBytes: 1,
			MinQueries:       1,
		}),
		withReplicationBudget(1e-9),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(ctx, hotOOQuery); err != nil {
			t.Fatal(err)
		}
		sys.WaitForMigrations()
	}
	st := sys.AdvisorStats()
	if st.Migrations != 0 {
		t.Fatalf("advisor migrated past a zero budget: %+v", st)
	}
	if st.SkippedBudget == 0 {
		t.Fatalf("advisor never recorded the budget rejection: %+v", st)
	}
}

// TestAdaptiveMemoryBudgetIsolation: a total memory budget too small
// for the migration's store rebuilds fails the round (recorded, never
// fatal) while serving keeps working on the old placement.
func TestAdaptiveMemoryBudgetIsolation(t *testing.T) {
	ds := lubmDataset(t)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(10),
		WithMemoryBudget(0, 64<<20),
		WithAdaptivePartitioning(AdaptiveConfig{
			MinShuffledBytes: 1,
			MinQueries:       1,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the advisor directly (the serving path would do the same
	// through ShuffleGroups) so the trigger state is exact, then starve
	// the shared budget: the migration round must fail its reservation,
	// stay a candidate, and succeed once the memory is back.
	pred, ok := ds.Dict.Lookup(ub + "takesCourse")
	if !ok {
		t.Fatal("takesCourse not in dictionary")
	}
	sys.advisor.Observe([]adaptive.Observation{{
		Key:   partition.GroupKey{Pred: pred, Pos: partition.PosO},
		Rows:  20000,
		Bytes: 200000,
	}})
	hold := sys.budget.NewGauge()
	if err := hold.Reserve("test-hold", 64<<20-1024); err != nil {
		t.Fatal(err)
	}
	sys.runRound("migration", sys.advisor.PlanMigration)
	st := sys.AdvisorStats()
	if st.Migrations != 0 {
		t.Fatalf("migration applied despite exhausted memory budget: %+v", st)
	}
	if st.FailedMigrations == 0 {
		t.Fatalf("budget-tripped round was not recorded: %+v", st)
	}
	hold.Reset()
	sys.runRound("migration", sys.advisor.PlanMigration)
	st = sys.AdvisorStats()
	if st.Migrations == 0 {
		t.Fatalf("migration never recovered after budget release: %+v", st)
	}
	ctx := context.Background()
	q, _ := ParseQuery(hotOOQuery)
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(ctx, hotOOQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResultRows(res, want) {
		t.Fatal("rows diverged after recovered migration")
	}
}

// TestMigrationAccountsEngineCopies: with writes applied before the
// migration round, the advisor counts — and charges to the replication
// budget — exactly the copies the engine's overlays gain, never a copy
// of an ingested triple. ReplicationFactor reads the serving snapshot:
// at Open it is the method's own factor, after the round the view's
// stored copies over the dataset's size.
func TestMigrationAccountsEngineCopies(t *testing.T) {
	ds := migDataset()
	const nodes = 4
	method := mustPartition(t, "2f", ds, nodes)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(nodes),
		WithAdaptivePartitioning(AdaptiveConfig{MinShuffledBytes: 1, MinQueries: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got, want := sys.ReplicationFactor(), method.ReplicationFactor(ds.Len()); got != want {
		t.Errorf("replication factor at Open %v, the method's is %v", got, want)
	}
	addMigWrites(ds)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(ctx, migHot); err != nil {
			t.Fatal(err)
		}
		sys.WaitForMigrations()
	}
	st := sys.AdvisorStats()
	if st.Migrations == 0 {
		t.Fatalf("no migration ran: %+v", st)
	}
	view := sys.engine.Snapshot().View()
	var overlaid int64
	for _, ts := range view.Overlay {
		overlaid += int64(len(ts))
	}
	if st.MigratedTriples != overlaid {
		t.Errorf("the advisor counts %d copies, the engine's overlays gained %d", st.MigratedTriples, overlaid)
	}
	if st.AlignedGroups != view.Align.Len() {
		t.Errorf("AlignedGroups %d, the snapshot aligns %d", st.AlignedGroups, view.Align.Len())
	}
	if got, want := sys.ReplicationFactor(), float64(view.Copies())/float64(ds.Len()); got != want {
		t.Errorf("replication factor %v, the view stores %v", got, want)
	}
}
