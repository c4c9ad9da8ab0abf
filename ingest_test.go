package sparqlopt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sparqlopt/internal/rdf"
)

// TestIngestVisibility: a committed write is visible to the very next
// Run, served bit-identically to the single-node reference; a
// duplicate insert is a full no-op — no epoch bump, no cache
// invalidation, the warm plan keeps serving.
func TestIngestVisibility(t *testing.T) {
	ds := tinyDataset()
	sys, err := Open(ds, WithNodes(3), WithPlanCache(32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const src = `SELECT * WHERE { ?x <http://knows> ?y . }`
	before, err := sys.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}

	ds.Add("http://carol", "http://knows", "http://dave")
	after, err := sys.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("after the write: %d rows, want %d", len(after.Rows), len(before.Rows)+1)
	}
	want, err := Reference(ds, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-write", after, want)
	if after.CacheInfo.Hit {
		t.Fatal("write to <knows> did not invalidate the cached plan")
	}

	// Duplicate insert: no epoch bump, no hook, no invalidation.
	epoch := ds.Epoch()
	ds.Add("http://carol", "http://knows", "http://dave")
	if got := ds.Epoch(); got != epoch {
		t.Fatalf("duplicate insert bumped the epoch: %d -> %d", epoch, got)
	}
	again, err := sys.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheInfo.Hit {
		t.Fatal("duplicate insert evicted the warm plan")
	}
	sameRows(t, "post-duplicate", again, want)

	// An all-duplicate batch is equally invisible; a batch with one
	// fresh triple commits exactly that triple atomically.
	dup := rdf.Triple{
		S: ds.Dict.Intern("http://carol"),
		P: ds.Dict.Intern("http://knows"),
		O: ds.Dict.Intern("http://dave"),
	}
	if n := ds.AddBatch([]rdf.Triple{dup, dup}); n != 0 {
		t.Fatalf("all-duplicate batch committed %d triples", n)
	}
	fresh := rdf.Triple{
		S: ds.Dict.Intern("http://dave"),
		P: ds.Dict.Intern("http://knows"),
		O: ds.Dict.Intern("http://erin"),
	}
	if n := ds.AddBatch([]rdf.Triple{dup, fresh}); n != 1 {
		t.Fatalf("mixed batch committed %d triples, want 1", n)
	}
	final, err := sys.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err = Reference(ds, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-batch", final, want)
}

// isoPairs is the number of writer commits in the snapshot-isolation
// property; each commit is one atomic pair of triples adding exactly
// one result row to isoQuery.
const isoPairs = 12

const isoQuery = `SELECT * WHERE { ?x <http://iso/p1> ?y . ?y <http://iso/p2> ?z . }`

// isoDataset builds the base graph plus the first k writer pairs, in
// one fixed Add order. Because the Dict interns terms in insertion
// order, two isoDatasets agree on every TermID — which makes rows
// from different instances directly comparable.
func isoDataset(k int) *Dataset {
	ds := NewDataset()
	for i := 0; i < 4; i++ {
		ds.Add(fmt.Sprintf("http://iso/a%d", i), "http://iso/p1", fmt.Sprintf("http://iso/b%d", i))
		ds.Add(fmt.Sprintf("http://iso/b%d", i), "http://iso/p2", fmt.Sprintf("http://iso/c%d", i))
		ds.Add(fmt.Sprintf("http://iso/a%d", i), "http://iso/noise", fmt.Sprintf("http://iso/n%d", i))
	}
	for j := 0; j < k; j++ {
		ds.Add(fmt.Sprintf("http://iso/wa%d", j), "http://iso/p1", fmt.Sprintf("http://iso/wb%d", j))
		ds.Add(fmt.Sprintf("http://iso/wb%d", j), "http://iso/p2", fmt.Sprintf("http://iso/wc%d", j))
	}
	return ds
}

// isoPair returns pair j's two triples interned into ds's dictionary,
// in the same order isoDataset(k) interns them.
func isoPair(ds *Dataset, j int) []rdf.Triple {
	p1 := ds.Dict.Intern("http://iso/p1")
	p2 := ds.Dict.Intern("http://iso/p2")
	a := ds.Dict.Intern(fmt.Sprintf("http://iso/wa%d", j))
	b := ds.Dict.Intern(fmt.Sprintf("http://iso/wb%d", j))
	c := ds.Dict.Intern(fmt.Sprintf("http://iso/wc%d", j))
	return []rdf.Triple{{S: a, P: p1, O: b}, {S: b, P: p2, O: c}}
}

// TestIngestSnapshotIsolation is the MVCC property test: while a
// writer commits pairs of triples (each pair atomically adds exactly
// one result row), concurrent readers on a cached system must each
// observe some committed prefix — never a torn pair, never a blocked
// read — across every partitioning method and GOMAXPROCS setting.
// Row sets are compared bit-for-bit against per-prefix references.
func TestIngestSnapshotIsolation(t *testing.T) {
	// expected[k] is the exact row set after k committed pairs.
	expected := make(map[int][][]rdf.TermID, isoPairs+1)
	baseRows := 0
	for k := 0; k <= isoPairs; k++ {
		ref, err := Reference(isoDataset(k), mustParse(t, isoQuery))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			baseRows = len(ref.Rows)
		}
		if len(ref.Rows) != baseRows+k {
			t.Fatalf("prefix %d: %d rows, want %d — pairs must add exactly one row each",
				k, len(ref.Rows), baseRows+k)
		}
		expected[len(ref.Rows)] = ref.Rows
	}

	for _, method := range []string{"hash-so", "2f", "path-bmc", "un-1hop"} {
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/p%d", method, procs), func(t *testing.T) {
				withProcs(t, procs)
				ds := isoDataset(0)
				sys, err := Open(ds,
					WithMethod(mustMethod(t, method)),
					WithNodes(4),
					WithPlanCache(16),
				)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				done := make(chan struct{})
				errc := make(chan error, 4)
				for r := 0; r < 3; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-done:
								return
							default:
							}
							res, err := sys.Run(context.Background(), isoQuery)
							if err != nil {
								errc <- err
								return
							}
							want, ok := expected[len(res.Rows)]
							if !ok {
								errc <- fmt.Errorf("%d rows matches no committed prefix (torn write?)", len(res.Rows))
								return
							}
							if !chaosRowsEqual(res.Rows, want) {
								errc <- fmt.Errorf("rows diverge from the %d-pair prefix reference", len(res.Rows)-baseRows)
								return
							}
						}
					}()
				}
				for j := 0; j < isoPairs; j++ {
					if n := ds.AddBatch(isoPair(ds, j)); n != 2 {
						t.Errorf("pair %d committed %d triples, want 2", j, n)
					}
				}
				close(done)
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Error(err)
				}
				// Quiesced: the final snapshot holds every pair.
				final, err := sys.Run(context.Background(), isoQuery)
				if err != nil {
					t.Fatal(err)
				}
				if !chaosRowsEqual(final.Rows, expected[baseRows+isoPairs]) {
					t.Fatalf("final run: %d rows, want %d", len(final.Rows), baseRows+isoPairs)
				}
			})
		}
	}
}

// TestIngestRacesMigration interleaves writes, cached reads and
// adaptive migrations under -race: the advisor repartitions the hot
// object-object star while a writer keeps growing exactly those
// predicates. After quiescing, results must match the single-node
// reference over the final dataset.
func TestIngestRacesMigration(t *testing.T) {
	ds := migDataset()
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(4),
		WithPlanCache(64),
		WithAdaptivePartitioning(AdaptiveConfig{MinShuffledBytes: 1, MinQueries: 2}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var readers, writer sync.WaitGroup
	errc := make(chan error, 4)
	var stop atomic.Bool
	writer.Add(1)
	go func() { // writer: grows the hot predicates and noise
		defer writer.Done()
		for i := 0; !stop.Load(); i++ {
			ds.Add(fmt.Sprintf("http://mig/ws%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
			ds.Add(fmt.Sprintf("http://mig/ws%d", i), "http://mig/noise", fmt.Sprintf("\"%d\"", i))
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() { // readers: drive the advisor toward migration
			defer readers.Done()
			for i := 0; i < 30; i++ {
				if _, err := sys.Run(ctx, migHot); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	sys.WaitForMigrations()
	if !sys.FlushWrites() {
		t.Fatal("FlushWrites failed with no faults armed")
	}
	if n := sys.PendingWrites(); n != 0 {
		t.Fatalf("%d pending writes after flush", n)
	}
	want, err := Reference(ds, mustParse(t, migHot))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run(ctx, migHot)
	if err != nil {
		t.Fatal(err)
	}
	if !chaosRowsEqual(got.Rows, want.Rows) {
		t.Fatalf("post-migration rows diverge from reference (%d vs %d)", len(got.Rows), len(want.Rows))
	}
}

// migDataset is 120 triples over two predicates that share seven
// objects, so migHot — their object-object star — repartitions on ?c
// and the advisor migrates both groups.
func migDataset() *Dataset {
	ds := NewDataset()
	for i := 0; i < 60; i++ {
		ds.Add(fmt.Sprintf("http://mig/s%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
		ds.Add(fmt.Sprintf("http://mig/t%d", i), "http://mig/p2", fmt.Sprintf("http://mig/o%d", i%7))
	}
	return ds
}

const migHot = `SELECT * WHERE { ?s <http://mig/p1> ?c . ?t <http://mig/p2> ?c . }`

// addMigWrites commits 80 triples to both migrated predicates, 40 each.
func addMigWrites(ds *Dataset) {
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("http://mig/ws%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
		ds.Add(fmt.Sprintf("http://mig/wt%d", i), "http://mig/p2", fmt.Sprintf("http://mig/o%d", i%7))
	}
}

// TestChaosMigrationDeferredWrites: a migration round that runs while
// committed writes wait to be applied (the rdf/snapshot fault defers
// every apply) must plan from what the engine serves, not from the
// dataset. Triples it copied early would reach the ingest delta too
// once the writes drain, and aligned scans would emit them twice.
func TestChaosMigrationDeferredWrites(t *testing.T) {
	ds := migDataset()
	faults := NewFaultSet(chaosSeed(t))
	faults.Arm(FaultRdfSnapshot, 1)
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(4),
		WithWriteFaultInjection(faults),
		WithAdaptivePartitioning(AdaptiveConfig{MinShuffledBytes: 1, MinQueries: 1, Synchronous: true}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addMigWrites(ds)
	if sys.PendingWrites() == 0 {
		t.Fatal("no write was deferred")
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(ctx, migHot); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.AdvisorStats(); st.Migrations == 0 {
		t.Fatalf("no migration ran: %+v", st)
	}
	if !sys.FlushWrites() {
		t.Fatal("FlushWrites failed with no faults armed")
	}
	want, err := Reference(ds, mustParse(t, migHot))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run(ctx, migHot)
	if err != nil {
		t.Fatal(err)
	}
	if !chaosRowsEqual(got.Rows, want.Rows) {
		t.Errorf("Run after the flush: %d rows, reference %d", len(got.Rows), len(want.Rows))
	}
	rows, err := sys.RunStream(ctx, migHot)
	if err != nil {
		t.Fatal(err)
	}
	if streamed := drainSorted(t, rows); !equalRowSets(streamed, want.Rows) {
		t.Errorf("RunStream after the flush: %d rows, reference %d", len(streamed), len(want.Rows))
	}
}

// TestChaosIngest injects panics into the write-apply path
// (rdf/snapshot): the commit stays durable, the apply is deferred,
// serving continues on the previous snapshot without an error, and a
// later drain catches the engine up to the full dataset.
func TestChaosIngest(t *testing.T) {
	seed := chaosSeed(t)
	ds := tinyDataset()
	faults := NewFaultSet(seed * 77)
	faults.Arm(FaultRdfSnapshot, 2)
	sys, err := Open(ds,
		WithNodes(3),
		WithPlanCache(64),
		WithWriteFaultInjection(faults),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const src = `SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`

	maxPending := 0
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("http://chaos/s%d", i), "http://knows", fmt.Sprintf("http://chaos/o%d", i))
		if i%4 == 0 {
			ds.Add(fmt.Sprintf("http://chaos/o%d", i), "http://worksFor", "http://acme")
		}
		if n := sys.PendingWrites(); n > maxPending {
			maxPending = n
		}
		// Serving never fails: a deferred apply means the query runs
		// against the last applied snapshot, not a torn one.
		if _, err := sys.Run(ctx, src); err != nil {
			t.Fatalf("write %d: serving failed during deferred apply: %v", i, err)
		}
	}
	if faults.Fired(FaultRdfSnapshot) == 0 {
		t.Fatal("the rdf/snapshot fault never fired")
	}
	if maxPending == 0 {
		t.Fatal("no write was ever deferred — the fault site is not on the apply path")
	}
	if !sys.FlushWrites() {
		t.Fatal("faultless FlushWrites did not drain the queue")
	}
	if n := sys.PendingWrites(); n != 0 {
		t.Fatalf("%d pending writes after flush", n)
	}
	want, err := Reference(ds, mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if !chaosRowsEqual(got.Rows, want.Rows) {
		t.Fatalf("post-flush rows diverge from reference (%d vs %d)", len(got.Rows), len(want.Rows))
	}
}
