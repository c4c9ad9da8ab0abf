package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlopt/internal/partition"
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

// TestIngestRacesMigration interleaves writes, cached reads and a
// recovery round under -race: readers serve the object-object star with
// a node dead, their unavailable failures trigger the round that
// re-replicates the node's stranded triples, and a writer keeps growing
// exactly those predicates. After quiescing, results with the node
// healthy and dead must match the single-node reference over the final
// dataset.
func TestIngestRacesMigration(t *testing.T) {
	ds := migDataset()
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(4),
		WithPlanCache(64),
		failoverBreakerOff,
		WithObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dead := strandedNode(sys)
	if dead < 0 {
		t.Fatal("no node holds an unreplicated triple")
	}

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
		go func() { // readers: the node's stranded triples trigger recovery
			defer readers.Done()
			faults := killNode(dead)
			for i := 0; i < 30; i++ {
				if _, err := sys.Run(ctx, migHot, WithFaultInjection(faults)); err != nil && !errors.Is(err, ErrUnavailable) {
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
	checkQuiesced(t, sys, ds)
	if applied, failed := recoveryRounds(sys); applied != 1 || failed != 0 {
		t.Fatalf("%d recovery rounds applied, %d failed; want 1 and 0", applied, failed)
	}
	want, err := Reference(ds, mustParse(t, migHot))
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []*FaultSet{nil, killNode(dead)} {
		got, err := sys.Run(ctx, migHot, WithFaultInjection(faults))
		if err != nil {
			t.Fatal(err)
		}
		if !chaosRowsEqual(got.Rows, want.Rows) {
			t.Fatalf("post-recovery rows (node %d dead: %v) diverge from reference (%d vs %d)",
				dead, faults != nil, len(got.Rows), len(want.Rows))
		}
	}
}

// migDataset is 120 triples over two predicates that share seven
// objects, so migHot — their object-object star — repartitions on ?c.
// Under 2f every triple is placed on its subject's home alone.
func migDataset() *Dataset {
	ds := NewDataset()
	for i := 0; i < 60; i++ {
		ds.Add(fmt.Sprintf("http://mig/s%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
		ds.Add(fmt.Sprintf("http://mig/t%d", i), "http://mig/p2", fmt.Sprintf("http://mig/o%d", i%7))
	}
	return ds
}

const migHot = `SELECT * WHERE { ?s <http://mig/p1> ?c . ?t <http://mig/p2> ?c . }`

// addMigWrites commits 80 triples to migDataset's predicates, 40 each.
func addMigWrites(ds *Dataset) {
	for i := 0; i < 40; i++ {
		ds.Add(fmt.Sprintf("http://mig/ws%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
		ds.Add(fmt.Sprintf("http://mig/wt%d", i), "http://mig/p2", fmt.Sprintf("http://mig/o%d", i%7))
	}
}

// checkQuiesced fails t unless the engine's pinned snapshot, the
// statistics tracker and the dataset are at one epoch.
func checkQuiesced(t *testing.T, sys *System, ds *Dataset) {
	t.Helper()
	engineEpoch, trackerEpoch, dsEpoch := sys.engine.Snapshot().Data().Epoch(), sys.tracker.Epoch(), ds.Epoch()
	if engineEpoch != dsEpoch || trackerEpoch != dsEpoch {
		t.Errorf("quiesced: engine at epoch %d, tracker at %d, dataset at %d", engineEpoch, trackerEpoch, dsEpoch)
	}
}

// TestChaosServingSnapshotFollowsEpochs races a writer against
// back-to-back recovery rounds that add nothing but still bump the
// epoch. Every engine snapshot a watcher loads must pin a dataset
// snapshot whose epoch never goes backwards and whose triples are
// exactly the fragments plus the snapshot's own delta. At quiescence
// the engine, the tracker and the dataset are at one epoch. A 50,000-
// triple delta makes every chunk merge slow, which widens any window
// in which a round and a commit could publish out of order.
func TestChaosServingSnapshotFollowsEpochs(t *testing.T) {
	ds := migDataset()
	const nodes = 4
	sys, err := Open(ds,
		WithMethod(mustMethod(t, "2f")),
		WithNodes(nodes),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base := ds.Len()
	big := make([]rdf.Triple, 50000)
	p := ds.Dict.Intern("http://mig/big")
	for i := range big {
		big[i] = rdf.Triple{S: ds.Dict.Intern(fmt.Sprintf("http://mig/b%d", i)), P: p, O: ds.Dict.Intern(fmt.Sprintf("http://mig/o%d", i%7))}
	}
	ds.AddBatch(big)
	noop := func(*partition.View) *partition.Migration {
		return &partition.Migration{Adds: make([][]rdf.Triple, nodes)}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			ds.Add(fmt.Sprintf("http://mig/ws%d", i), "http://mig/p1", fmt.Sprintf("http://mig/o%d", i%7))
		}
	}()
	go func() { // recovery rounds
		defer wg.Done()
		for !stop.Load() {
			sys.migMu.Lock()
			_, err := sys.applyRoundLocked(noop)
			sys.migMu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var backwards, torn, loads int
	var last uint64
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); loads++ {
		snap := sys.engine.Snapshot()
		data := snap.Data()
		if data.Epoch() < last {
			backwards++
		}
		last = data.Epoch()
		if snap.DeltaLen() != data.Len()-base {
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	if backwards > 0 || torn > 0 {
		t.Errorf("of %d snapshots loaded, %d pinned an older epoch than the last and %d had a delta that disagrees with their data",
			loads, backwards, torn)
	}
	checkQuiesced(t, sys, ds)
}
