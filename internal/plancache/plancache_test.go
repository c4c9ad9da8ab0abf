package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlopt/internal/opt"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

func testDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	ds.Add("http://alice", "http://knows", "http://bob")
	ds.Add("http://bob", "http://knows", "http://carol")
	ds.Add("http://alice", "http://worksFor", "http://acme")
	ds.Add("http://bob", "http://worksFor", "http://acme")
	ds.Add("http://carol", "http://worksFor", "http://acme")
	for i := 0; i < 20; i++ {
		ds.Add(fmt.Sprintf("http://s%d", i), fmt.Sprintf("http://p%d", i%8), fmt.Sprintf("http://o%d", i))
	}
	return ds
}

// harness bundles a dataset with counted collect/optimize callbacks
// driving the real optimizer.
type harness struct {
	ds        *rdf.Dataset
	collects  atomic.Int64
	optimizes atomic.Int64
	// gate, when non-nil, blocks optimize until released — for
	// singleflight tests.
	gate chan struct{}
}

func (h *harness) collect(q *sparql.Query) (*stats.Stats, error) {
	h.collects.Add(1)
	return stats.Collect(h.ds, q)
}

func (h *harness) optimize(ctx context.Context, q *sparql.Query, st *stats.Stats) (*opt.Result, error) {
	h.optimizes.Add(1)
	if h.gate != nil {
		<-h.gate
	}
	views, err := querygraph.Build(q)
	if err != nil {
		return nil, err
	}
	est, err := stats.NewEstimator(q, st)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(ctx, &opt.Input{Query: q, Views: views, Est: est}, opt.TDCMD)
}

func (h *harness) serve(t *testing.T, c *Cache, src string, epoch uint64) (*opt.Result, Info) {
	t.Helper()
	q := sparql.MustParse(src)
	res, info, err := c.Optimize(context.Background(), q, opt.TDCMD, epoch, h.collect, h.optimize, nil)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", src, err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("served plan invalid: %v", err)
	}
	return res, info
}

const chainQuery = `SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`

func TestHitMissAndStatsReuse(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	_, info := h.serve(t, c, chainQuery, 1)
	if info.Hit {
		t.Fatal("first call reported a hit")
	}
	_, info = h.serve(t, c, chainQuery, 1)
	if !info.Hit || info.Shared {
		t.Fatalf("second call: %+v, want resolved hit", info)
	}
	if n := h.optimizes.Load(); n != 1 {
		t.Fatalf("optimizer ran %d times, want 1", n)
	}
	if n := h.collects.Load(); n != 1 {
		t.Fatalf("stats collected %d times, want 1", n)
	}
	got := c.Counters()
	if got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("counters %+v", got)
	}
}

func TestHitAcrossIsomorphicQueries(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	res1, _ := h.serve(t, c, chainQuery, 1)
	// Same shape: renamed variables, reordered patterns, different
	// subject constant position contents are untouched here.
	iso := `SELECT * WHERE { ?p <http://worksFor> ?q . ?r <http://knows> ?p . }`
	res2, info := h.serve(t, c, iso, 1)
	if !info.Hit {
		t.Fatal("isomorphic query missed")
	}
	if h.optimizes.Load() != 1 {
		t.Fatalf("optimizer ran %d times", h.optimizes.Load())
	}
	// The served plan must live in the second query's index/name space.
	q2 := sparql.MustParse(iso)
	var check func(n *plan.Node)
	check = func(n *plan.Node) {
		if n.Alg == plan.Scan {
			if n.TP < 0 || n.TP >= len(q2.Patterns) {
				t.Fatalf("leaf TP %d out of range", n.TP)
			}
			return
		}
		if n.JoinVar != "p" {
			t.Fatalf("join var %q, want the second query's shared var p", n.JoinVar)
		}
		for _, ch := range n.Children {
			check(ch)
		}
	}
	check(res2.Plan)
	if res2.Plan.Cost != res1.Plan.Cost {
		t.Fatalf("remapped plan cost %v, template cost %v", res2.Plan.Cost, res1.Plan.Cost)
	}
}

func TestSingleflightDedup(t *testing.T) {
	h := &harness{ds: testDataset(), gate: make(chan struct{})}
	c := New(64)
	const n = 16
	var wg sync.WaitGroup
	infos := make([]Info, n)
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			q := sparql.MustParse(chainQuery)
			res, info, err := c.Optimize(context.Background(), q, opt.TDCMD, 1, h.collect, h.optimize, nil)
			infos[i], errs[i] = info, err
			if err == nil {
				errs[i] = res.Plan.Validate()
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(h.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got := h.optimizes.Load(); got != 1 {
		t.Fatalf("optimizer ran %d times under contention, want 1", got)
	}
	hits := 0
	for _, info := range infos {
		if info.Hit {
			hits++
		}
	}
	if hits != n-1 {
		t.Fatalf("%d hits, want %d", hits, n-1)
	}
	got := c.Counters()
	if got.Misses != 1 || got.Hits != int64(n-1) {
		t.Fatalf("counters %+v", got)
	}
	if got.SingleflightWaits == 0 {
		t.Fatal("no singleflight waits recorded")
	}
}

func TestEpochInvalidation(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	h.serve(t, c, chainQuery, 1)
	h.serve(t, c, chainQuery, 1)
	_, info := h.serve(t, c, chainQuery, 2)
	if info.Hit {
		t.Fatal("stale plan served across epochs")
	}
	if info.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", info.Epoch)
	}
	if n := h.optimizes.Load(); n != 2 {
		t.Fatalf("optimizer ran %d times, want 2 (one per epoch)", n)
	}
	if n := h.collects.Load(); n != 2 {
		t.Fatalf("stats collected %d times, want 2 (snapshot invalidated too)", n)
	}
	got := c.Counters()
	if got.Invalidations != 1 {
		t.Fatalf("invalidations %d, want 1", got.Invalidations)
	}
	// A reader pinned at an older snapshot (epoch 1) while the entry
	// sits at epoch 2 is served as-is: epochs are monotonic under MVCC
	// snapshots, plans are correct at any epoch, and re-optimizing here
	// would let concurrent readers at different epochs thrash the entry.
	_, info = h.serve(t, c, chainQuery, 1)
	if !info.Hit {
		t.Fatal("pinned older reader must be served the newer cached plan")
	}
	if n := h.optimizes.Load(); n != 2 {
		t.Fatalf("optimizer ran %d times, want 2 (older pinned reader served as-is)", n)
	}
}

func TestLRUEviction(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(16) // one fingerprint per shard
	if c.Capacity() != 16 {
		t.Fatalf("capacity %d", c.Capacity())
	}
	// Distinct predicates give distinct fingerprints.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			src := fmt.Sprintf(`SELECT * WHERE { ?x <http://p%d> ?y . ?y <http://p%d> ?z . }`, i, (i+1)%64)
			h.serve(t, c, src, 1)
		}
	}
	got := c.Counters()
	if got.Evictions == 0 {
		t.Fatalf("no evictions at 4x capacity: %+v", got)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("resident %d > capacity %d", c.Len(), c.Capacity())
	}
	// Evicted shapes were re-optimized on the second round.
	if h.optimizes.Load() <= 64 {
		t.Fatalf("optimizer ran %d times; evicted entries must re-optimize", h.optimizes.Load())
	}
}

func TestOwnerErrorIsRetriable(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	q := sparql.MustParse(chainQuery)
	boom := fmt.Errorf("boom")
	_, _, err := c.Optimize(context.Background(), q, opt.TDCMD, 1, h.collect,
		func(context.Context, *sparql.Query, *stats.Stats) (*opt.Result, error) { return nil, boom }, nil)
	if err != boom {
		t.Fatalf("err %v, want boom", err)
	}
	// The failed slot must not poison the fingerprint.
	_, info := h.serve(t, c, chainQuery, 1)
	if info.Hit {
		t.Fatal("hit after failed optimization")
	}
	_, info = h.serve(t, c, chainQuery, 1)
	if !info.Hit {
		t.Fatal("no hit after successful retry")
	}
}

// An owner canceled mid-optimization must not poison the singleflight
// slot: every waiter queued behind it retries, exactly one becomes the
// new owner and optimizes, and the rest are served its plan.
func TestOwnerCanceledDoesNotPoisonSlot(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerIn := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		q := sparql.MustParse(chainQuery)
		// The owner's optimize blocks until its context dies — a client
		// that walked away mid-optimization.
		_, _, err := c.Optimize(ownerCtx, q, opt.TDCMD, 1, h.collect,
			func(ctx context.Context, _ *sparql.Query, _ *stats.Stats) (*opt.Result, error) {
				close(ownerIn)
				<-ctx.Done()
				return nil, ctx.Err()
			}, nil)
		ownerDone <- err
	}()
	<-ownerIn
	const n = 8
	var wg sync.WaitGroup
	infos := make([]Info, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := sparql.MustParse(chainQuery)
			res, info, err := c.Optimize(context.Background(), q, opt.TDCMD, 1, h.collect, h.optimize, nil)
			infos[i], errs[i] = info, err
			if err == nil {
				errs[i] = res.Plan.Validate()
			}
		}(i)
	}
	// Wait until every waiter is parked on the doomed owner's slot, so
	// the cancellation genuinely exercises the wake-and-retry path.
	deadline := time.Now().Add(10 * time.Second)
	for c.Counters().SingleflightWaits < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters queued", c.Counters().SingleflightWaits, n)
		}
		time.Sleep(time.Millisecond)
	}
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err %v, want context.Canceled", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v (owner cancellation leaked to a waiter)", i, err)
		}
	}
	if got := h.optimizes.Load(); got != 1 {
		t.Fatalf("optimizer ran %d times after owner cancellation, want 1 (one waiter re-owns)", got)
	}
	for i, info := range infos {
		if !info.Shared {
			t.Fatalf("waiter %d not marked Shared: %+v", i, info)
		}
	}
	// The fingerprint is healthy: the next call is a plain hit.
	if _, info := h.serve(t, c, chainQuery, 1); !info.Hit {
		t.Fatal("no hit after waiter re-owned the optimization")
	}
}

// Waiters whose own context dies while parked still fail with their
// context error, and repeated owner failures eventually surface the
// owner error instead of retrying forever.
func TestWaiterRetryBounds(t *testing.T) {
	h := &harness{ds: testDataset()}
	c := New(64)
	boom := fmt.Errorf("boom")
	failing := func(context.Context, *sparql.Query, *stats.Stats) (*opt.Result, error) { return nil, boom }
	// Sequential calls each become the owner (the failed slot is
	// unpublished every time), so no retry bound applies to them.
	for i := 0; i < 2; i++ {
		q := sparql.MustParse(chainQuery)
		if _, _, err := c.Optimize(context.Background(), q, opt.TDCMD, 1, h.collect, failing, nil); !errors.Is(err, boom) {
			t.Fatalf("call %d: err %v, want boom", i, err)
		}
	}
	// A waiter whose own context is dead surfaces that — not anything
	// about the healthy owner it would otherwise have queued behind.
	h.gate = make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		q := sparql.MustParse(chainQuery)
		if _, _, err := c.Optimize(context.Background(), q, opt.TDCMD, 1, h.collect, h.optimize, nil); err != nil {
			t.Errorf("gated owner: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for h.optimizes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gated owner never reached the optimizer")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := sparql.MustParse(chainQuery)
	if _, _, err := c.Optimize(ctx, q, opt.TDCMD, 1, h.collect, h.optimize, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-context waiter: err %v, want context.Canceled", err)
	}
	close(h.gate)
	<-ownerDone
}

func TestNilForZeroCapacity(t *testing.T) {
	if New(0) != nil || New(-3) != nil {
		t.Fatal("New must return nil for non-positive capacity")
	}
}
