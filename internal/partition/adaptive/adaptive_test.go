package adaptive

import (
	"fmt"
	"testing"

	"sparqlopt/internal/engine"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
)

// hotDataset builds a dataset with one shuffle-heavy predicate ("hot",
// object-keyed joins) and background noise on other predicates.
func hotDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("s%d", i), "hot", fmt.Sprintf("o%d", i%7))
		ds.Add(fmt.Sprintf("s%d", i), "cold", fmt.Sprintf("c%d", i%5))
	}
	ds.Dedup()
	return ds
}

func hotKey(tb testing.TB, ds *rdf.Dataset) partition.GroupKey {
	tb.Helper()
	pred, ok := ds.Dict.Lookup("hot")
	if !ok {
		tb.Fatal("hot predicate missing from dictionary")
	}
	return partition.GroupKey{Pred: pred, Pos: partition.PosO}
}

// serve builds an engine over the placement, as System does, so the
// advisor plans from the view the engine serves.
func serve(ds *rdf.Dataset, p *partition.Placement) *engine.Engine {
	e := engine.New(ds.Dict, p)
	e.SetData(ds.Snapshot())
	return e
}

// apply applies a proposal to the snapshot it was planned from and
// returns the view of the engine's new snapshot.
func apply(tb testing.TB, e *engine.Engine, from *engine.Snap, prop *Proposal) *partition.View {
	tb.Helper()
	if err := e.ApplyMigration(from, prop.Migration, prop.Keys); err != nil {
		tb.Fatal(err)
	}
	return e.Snapshot().View()
}

// overlaid counts the copies the view's overlays hold.
func overlaid(v *partition.View) int64 {
	var n int64
	for _, ts := range v.Overlay {
		n += int64(len(ts))
	}
	return n
}

func observeHot(a *Advisor, key partition.GroupKey, times int) bool {
	hot := false
	for i := 0; i < times; i++ {
		hot = a.Observe([]Observation{{Key: key, Rows: 1000, Bytes: 1 << 20}})
	}
	return hot
}

// TestObserveTrigger: the trigger fires only once a group crosses BOTH
// thresholds (bytes and distinct queries), and never for observations
// of aligned scans — those count as hits instead.
func TestObserveTrigger(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	a := New(Config{MinBytes: 3 << 20, MinQueries: 3})
	if observeHot(a, key, 2) {
		t.Fatal("trigger fired below MinQueries")
	}
	if !observeHot(a, key, 1) {
		t.Fatal("trigger did not fire at the thresholds")
	}
	st := a.Stats()
	if st.ObservedQueries != 3 || st.TrackedGroups != 1 {
		t.Fatalf("stats after 3 observations: %+v", st)
	}
	// Aligned observations are hits, not candidates, and never trigger.
	if a.Observe([]Observation{{Key: key, Aligned: true}}) {
		t.Fatal("aligned observation fired the trigger")
	}
	if got := a.Stats().AlignedHits; got != 1 {
		t.Fatalf("AlignedHits = %d, want 1", got)
	}
	// Empty observation lists are ignored entirely.
	if a.Observe(nil) {
		t.Fatal("empty observation fired the trigger")
	}
}

// TestPlanMigrationAllOrNothing: an accepted group's migration places a
// copy of EVERY group triple on the align node of its key term — the
// invariant the engine's aligned scan depends on — while preserving
// the base placement verbatim, and the engine's overlays gain exactly
// the copies the proposal counts.
func TestPlanMigrationAllOrNothing(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	const nodes = 4
	base, err := partition.HashSO{}.Partition(ds, nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{MinBytes: 1, MinQueries: 1})
	observeHot(a, key, 1)
	e := serve(ds, base)
	snap := e.Snapshot()
	prop := a.PlanMigration(snap.View())
	if prop == nil {
		t.Fatal("no proposal for a qualifying group")
	}
	if len(prop.Keys) != 1 || prop.Keys[0] != key {
		t.Fatalf("proposal keys = %v, want [%v]", prop.Keys, key)
	}
	next := apply(t, e, snap, prop)
	if !next.Align.Aligned(key.Pred, key.Pos) {
		t.Fatal("the engine's alignment does not cover the accepted group")
	}
	for _, tr := range ds.Triples {
		if tr.P != key.Pred {
			continue
		}
		node := partition.AlignNode(tr.O, nodes)
		if !next.Holds(node, tr) {
			t.Fatalf("group triple %v missing from its align node %d", ds.String(tr), node)
		}
	}
	// The base placement is untouched: migration builds a new snapshot.
	for node := range base.Triples {
		for _, tr := range base.Triples[node] {
			if !next.Holds(node, tr) {
				t.Fatalf("base copy %v on node %d dropped by migration", ds.String(tr), node)
			}
		}
	}
	// AddCount matches what the migration carries and the engine added.
	if got := int64(prop.Migration.AddCount()); got != prop.AddCount {
		t.Fatalf("AddCount %d != migration adds %d", prop.AddCount, got)
	}
	if got := overlaid(next); got != prop.AddCount {
		t.Fatalf("the overlays gained %d copies, the proposal counts %d", got, prop.AddCount)
	}
}

// TestPlanMigrationBudget: a replication budget too small for the group
// rejects it (recorded in SkippedBudget) and yields no proposal; a
// sufficient budget accepts the same state.
func TestPlanMigrationBudget(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	base, err := partition.HashSO{}.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{MinBytes: 1, MinQueries: 1, ReplicationBudget: 1e-9})
	observeHot(a, key, 1)
	view := serve(ds, base).Snapshot().View()
	if prop := a.PlanMigration(view); prop != nil {
		t.Fatalf("zero budget still produced a proposal: %+v", prop)
	}
	if got := a.Stats().SkippedBudget; got == 0 {
		t.Fatal("budget rejection was not recorded")
	}
	// Same accumulators, workable budget: accepted.
	a.cfg.ReplicationBudget = 2
	if prop := a.PlanMigration(view); prop == nil {
		t.Fatal("workable budget produced no proposal")
	}
}

// TestPlanMigrationBalance: if aligning a group would concentrate its
// triples past BalanceFactor× the mean fragment size, the group is
// rejected. All "skew" triples share one object, so alignment funnels
// them onto a single node.
func TestPlanMigrationBalance(t *testing.T) {
	ds := rdf.NewDataset()
	for i := 0; i < 60; i++ {
		ds.Add(fmt.Sprintf("s%d", i), "skew", "hub")
	}
	ds.Dedup()
	pred, ok := ds.Dict.Lookup("skew")
	if !ok {
		t.Fatal("skew predicate missing")
	}
	key := partition.GroupKey{Pred: pred, Pos: partition.PosO}
	base, err := partition.HashSO{}.Partition(ds, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{MinBytes: 1, MinQueries: 1, BalanceFactor: 1.05, ReplicationBudget: 10})
	observeHot(a, key, 1)
	if prop := a.PlanMigration(serve(ds, base).Snapshot().View()); prop != nil {
		t.Fatalf("skew-concentrating migration passed the balance check: %+v", prop)
	}
	if got := a.Stats().SkippedBudget; got == 0 {
		t.Fatal("balance rejection was not recorded")
	}
}

// TestCommitVsFailure: an applied and committed proposal retires the
// group (no re-proposal, budget spent); RecordFailure leaves it a live
// candidate for the next round. A proposal planned from a snapshot a
// migration has since replaced is refused, and so is one shaped for
// another cluster size.
func TestCommitVsFailure(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	base, err := partition.HashSO{}.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{MinBytes: 1, MinQueries: 1})
	observeHot(a, key, 1)
	e := serve(ds, base)
	snap := e.Snapshot()
	prop := a.PlanMigration(snap.View())
	if prop == nil {
		t.Fatal("no proposal")
	}
	// A failed application changes nothing: the plan can be recomputed.
	a.RecordFailure()
	if st := a.Stats(); st.FailedMigrations != 1 || st.Migrations != 0 {
		t.Fatalf("stats after failure: %+v", st)
	}
	again := a.PlanMigration(snap.View())
	if again == nil {
		t.Fatal("failed group no longer proposed")
	}
	if again.AddCount != prop.AddCount {
		t.Fatalf("re-plan diverged: %d vs %d adds", again.AddCount, prop.AddCount)
	}
	// Applying and committing retires it.
	next := apply(t, e, snap, again)
	a.Commit(again)
	st := a.Stats()
	if st.Migrations != 1 || st.MigratedTriples != again.AddCount {
		t.Fatalf("stats after commit: %+v", st)
	}
	if !next.Align.Aligned(key.Pred, key.Pos) {
		t.Fatal("committed group not aligned")
	}
	if prop := a.PlanMigration(next); prop != nil {
		t.Fatalf("aligned group proposed again: %+v", prop)
	}
	if err := e.ApplyMigration(snap, prop.Migration, prop.Keys); err == nil {
		t.Fatal("a proposal planned from a replaced snapshot was applied")
	}
	if err := e.ApplyMigration(e.Snapshot(), &partition.Migration{Adds: make([][]rdf.Triple, 3)}, nil); err == nil {
		t.Fatal("a migration for 3 nodes was applied to 4")
	}
}

// TestPlanMigrationNetOfExisting: adds are counted net of the copies
// the fragments and overlays already hold — re-planning against
// overlays that already place every group triple, but an alignment
// that does not name the group, proposes zero-add work.
func TestPlanMigrationNetOfExisting(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	base, err := partition.HashSO{}.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{MinBytes: 1, MinQueries: 1})
	observeHot(a, key, 1)
	e := serve(ds, base)
	snap := e.Snapshot()
	prop := a.PlanMigration(snap.View())
	if prop == nil {
		t.Fatal("no proposal")
	}
	if err := e.ApplyMigration(snap, prop.Migration, nil); err != nil {
		t.Fatal(err)
	}
	// A fresh advisor over the migrated overlays finds nothing left to
	// add for the group.
	b := New(Config{MinBytes: 1, MinQueries: 1})
	observeHot(b, key, 1)
	p2 := b.PlanMigration(e.Snapshot().View())
	if p2 != nil && p2.AddCount > 0 {
		t.Fatalf("re-plan against aligned placement wants %d more copies", p2.AddCount)
	}
}

// TestPlanRecoveryCoversDeadNode: after killing one node of an
// unreplicated placement, the recovery proposal places a copy of every
// stranded triple on a healthy node, and Commit records it as a
// recovery round.
func TestPlanRecoveryCoversDeadNode(t *testing.T) {
	ds := hotDataset()
	const nodes = 4
	base, err := partition.HashSO{}.Partition(ds, nodes)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	const dead = 1
	e := serve(ds, base)
	snap := e.Snapshot()
	prop := a.PlanRecovery(snap.View(), []int{dead})
	if prop == nil {
		t.Fatal("no recovery proposal for a dead unreplicated node")
	}
	if !prop.Recovery || len(prop.Keys) != 0 {
		t.Fatalf("recovery proposal malformed: Recovery=%v Keys=%v", prop.Recovery, prop.Keys)
	}
	if len(prop.Migration.Adds[dead]) != 0 {
		t.Fatal("recovery placed copies on the dead node")
	}
	next := apply(t, e, snap, prop)
	for _, tr := range base.Triples[dead] {
		found := false
		for node := 0; node < nodes; node++ {
			if node != dead && next.Holds(node, tr) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("stranded triple %v has no live copy after recovery", ds.String(tr))
		}
	}
	a.Commit(prop)
	st := a.Stats()
	if st.RecoveryMigrations != 1 || st.Migrations != 1 || st.MigratedTriples != prop.AddCount {
		t.Fatalf("stats after recovery commit: %+v", st)
	}
	// Already-covered state plans nothing more.
	if again := a.PlanRecovery(next, []int{dead}); again != nil {
		t.Fatalf("recovered placement proposed %d more copies", again.AddCount)
	}
	// Degenerate inputs: no dead nodes, or no survivors.
	if a.PlanRecovery(snap.View(), nil) != nil {
		t.Fatal("empty dead set produced a proposal")
	}
	if a.PlanRecovery(snap.View(), []int{0, 1, 2, 3}) != nil {
		t.Fatal("all-dead cluster produced a proposal")
	}
}

// TestPlanRecoveryBudgetAndHeat: a budget too small for everything
// recovers the hottest observed predicate first and records the
// skipped rest; a budget too small for anything yields no proposal.
func TestPlanRecoveryBudgetAndHeat(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	// An unreplicated placement (HashSO replicates ×2, stranding almost
	// nothing): adjacent hot/cold pairs land together, so every node
	// holds a mix of both predicates and killing one strands both.
	base := &partition.Placement{Nodes: 4, Triples: make([][]rdf.Triple, 4)}
	for i, tr := range ds.Triples {
		node := (i / 2) % 4
		base.Triples[node] = append(base.Triples[node], tr)
	}
	const dead = 2
	var hotStranded, coldStranded int64
	for _, tr := range base.Triples[dead] {
		if tr.P == key.Pred {
			hotStranded++
		} else {
			coldStranded++
		}
	}
	if hotStranded == 0 || coldStranded == 0 {
		t.Fatalf("fragment %d lacks a mix of predicates (hot=%d cold=%d)", dead, hotStranded, coldStranded)
	}
	// Budget exactly one hot group: heat must pick "hot" over "cold".
	a := New(Config{ReplicationBudget: (float64(hotStranded) + 0.5) / float64(ds.Snapshot().Len())})
	observeHot(a, key, 3)
	view := serve(ds, base).Snapshot().View()
	prop := a.PlanRecovery(view, []int{dead})
	if prop == nil {
		t.Fatal("no proposal with budget for the hot group")
	}
	if prop.AddCount != hotStranded {
		t.Fatalf("recovered %d copies, want the %d hot ones", prop.AddCount, hotStranded)
	}
	for _, adds := range prop.Migration.Adds {
		for _, tr := range adds {
			if tr.P != key.Pred {
				t.Fatalf("budgeted recovery copied cold triple %v before hot ones", ds.String(tr))
			}
		}
	}
	if a.Stats().SkippedBudget == 0 {
		t.Fatal("skipped cold group not recorded")
	}
	// Budget below any group: nothing fits.
	b := New(Config{ReplicationBudget: 1e-9})
	if prop := b.PlanRecovery(view, []int{dead}); prop != nil {
		t.Fatalf("zero budget still proposed %d copies", prop.AddCount)
	}
}

// TestConfigDefaults: zero-valued fields take the documented defaults.
func TestConfigDefaults(t *testing.T) {
	got := New(Config{}).Config()
	want := Config{MinBytes: 1 << 20, MinQueries: 3, ReplicationBudget: 0.5, BalanceFactor: 2}
	if got != want {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
	// Explicit values survive.
	got = New(Config{MinBytes: 7, MinQueries: 2, ReplicationBudget: 0.25, BalanceFactor: 3}).Config()
	if got.MinBytes != 7 || got.MinQueries != 2 || got.ReplicationBudget != 0.25 || got.BalanceFactor != 3 {
		t.Fatalf("explicit config rewritten: %+v", got)
	}
}

// TestAccumulatorDecay: with DecayHalfLife set, stale accumulation
// stops counting toward the trigger — a group hot last epoch expires
// once the workload moves on, and only sustained re-observation
// re-qualifies it. Without decay the same history would fire on the
// third observation.
func TestAccumulatorDecay(t *testing.T) {
	ds := hotDataset()
	key := hotKey(t, ds)
	cold := partition.GroupKey{Pred: key.Pred, Pos: partition.PosS}
	a := New(Config{MinBytes: 3 << 20, MinQueries: 3, DecayHalfLife: 4})
	if got := a.Stats().DecayHalfLife; got != 4 {
		t.Fatalf("Stats echoes DecayHalfLife %d, want 4", got)
	}

	// Two hot observations, then the workload moves on: 100 queries
	// that never touch the group. 25 half-lives erase its weight.
	observeHot(a, key, 2)
	for i := 0; i < 100; i++ {
		a.Observe([]Observation{{Key: cold, Rows: 1, Bytes: 1}})
	}
	st := a.Stats()
	if st.ExpiredGroups == 0 {
		t.Fatal("decayed-out group was never expired")
	}
	if st.TrackedGroups != 1 {
		t.Fatalf("%d tracked groups, want 1 (only the cold key)", st.TrackedGroups)
	}

	// One more hot observation must NOT fire: without decay this would
	// be the third query over 3 MiB of accumulated shuffle.
	if observeHot(a, key, 1) {
		t.Fatal("trigger fired on stale, decayed accumulation")
	}
	// Sustained heat still qualifies — but needs more than the
	// no-decay three observations, because each one ages the rest.
	obs := 1 // observations since the expiry, counting the one above
	for fired := false; !fired; {
		if obs++; obs > 10 {
			t.Fatal("sustained hot workload never re-qualified")
		}
		fired = observeHot(a, key, 1)
	}
	if obs <= 3 {
		t.Fatalf("re-qualified after %d observations; decay should slow the trigger past the no-decay 3", obs)
	}
}
