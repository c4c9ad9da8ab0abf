package sparqlopt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sparqlopt/internal/partition"
	"sparqlopt/internal/resilience/health"
)

// failoverDataset is a small social graph with two self-loop triples
// (subject == object). Under hash-so a self-loop gets exactly one copy
// (both placement hashes collapse), so at every cluster size some node
// holds unreplicated triples — the uncovered fault domain the typed
// UnavailableError path needs — while the regular edges are replicated
// and exercise the covered failover path.
func failoverDataset() *Dataset {
	ds := NewDataset()
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("http://p%d", i)
		ds.Add(p, "http://knows", fmt.Sprintf("http://p%d", (i+1)%10))
		ds.Add(p, "http://worksFor", fmt.Sprintf("http://org%d", i%3))
	}
	for i := 0; i < 3; i++ {
		ds.Add(fmt.Sprintf("http://org%d", i), "http://inCity", fmt.Sprintf("http://city%d", i%2))
	}
	ds.Add("http://loop0", "http://knows", "http://loop0")
	ds.Add("http://loop1", "http://worksFor", "http://loop1")
	return ds
}

var failoverQueries = []string{
	`SELECT * WHERE { ?x <http://knows> ?y . }`,
	`SELECT ?x ?o WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`,
	`SELECT * WHERE { ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`,
	`SELECT * WHERE { ?x <http://knows> ?y . ?x <http://worksFor> ?o . ?o <http://inCity> ?c . }`,
}

// nodeCovered reports whether every triple the node holds has a copy
// on some other node — the condition under which killing the node must
// be invisible to query results.
func nodeCovered(v *partition.View, node int) bool {
	for _, ts := range v.Fragment(node) {
		for _, tr := range ts {
			ok := false
			for j := 0; j < v.Nodes(); j++ {
				if j != node && v.Holds(j, tr) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// withBreaker sets the failover breakers' configuration, which Open
// otherwise fixes at the health package's defaults.
func withBreaker(hc health.Config) Option { return func(c *openConfig) { c.breaker = hc } }

// failoverBreakerOff enables failover with every breaker kept closed
// for the whole test so runs against different dead nodes cannot
// contaminate each other through shared breaker state; the
// retry-exhaustion path alone declares nodes dead. Breaker behavior
// itself is covered by the health package tests, TestFailoverBreakerRecovers
// and TestChaosFailover.
var failoverBreakerOff Option = func(c *openConfig) {
	WithNodeFailover(NodeFailoverConfig{MaxAttempts: 2, RetryBase: time.Microsecond, RetryCap: 10 * time.Microsecond})(c)
	withBreaker(health.Config{ConsecutiveFailures: 1 << 30, MinSamples: 1 << 30})(c)
}

// TestFailoverProperty is the deterministic failover property sweep:
// for every partitioning method and cluster size, killing any single
// node (its scan and shuffle sites fail on every hit) must either
// leave every query's rows bit-identical to the healthy run — required
// whenever the node's fragment is fully covered by replicas — or fail
// fast with a typed UnavailableError naming the node. A silent partial
// result, hang or panic anywhere fails the test.
func TestFailoverProperty(t *testing.T) {
	seed := chaosSeed(t)
	ds := failoverDataset()
	var sawUnavailable, sawFailover bool
	for _, methodName := range []string{"hash-so", "2f", "2fb", "path-bmc", "un-1hop"} {
		for _, nodes := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/P%d", methodName, nodes), func(t *testing.T) {
				m, err := PartitionMethod(methodName)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := Open(ds, WithMethod(m), WithNodes(nodes), failoverBreakerOff)
				if err != nil {
					t.Fatal(err)
				}
				view := sys.engine.Snapshot().View()
				covered := make([]bool, nodes)
				for i := range covered {
					covered[i] = nodeCovered(view, i)
				}
				for qi, src := range failoverQueries {
					ref, err := sys.Run(context.Background(), src)
					if err != nil {
						t.Fatalf("healthy run of %q: %v", src, err)
					}
					for node := 0; node < nodes; node++ {
						id := fmt.Sprintf("q%d/node%d(covered=%v)", qi, node, covered[node])
						faults := NewFaultSet(seed + int64(qi*1000+node))
						faults.Arm(FaultNodeScan(node), 1)
						faults.Arm(FaultNodeShuffle(node), 1)
						res, err := sys.Run(context.Background(), src, WithFaultInjection(faults))
						if err != nil {
							var ue *UnavailableError
							if !errors.As(err, &ue) {
								t.Errorf("%s: err = %v (%T), want *UnavailableError", id, err, err)
								continue
							}
							if covered[node] {
								t.Errorf("%s: fully covered node failed the query: %v", id, err)
							}
							if !errors.Is(err, ErrUnavailable) {
								t.Errorf("%s: error does not match ErrUnavailable", id)
							}
							found := false
							for _, n := range ue.Nodes {
								if n == node {
									found = true
								}
							}
							if !found {
								t.Errorf("%s: UnavailableError.Nodes = %v does not name node %d", id, ue.Nodes, node)
							}
							if ue.Op == "" || ue.Missing <= 0 {
								t.Errorf("%s: UnavailableError missing detail: %+v", id, ue)
							}
							sawUnavailable = true
							continue
						}
						// Success: a degraded run must still be bit-identical
						// to the healthy one — never a silent partial result.
						if !chaosRowsEqual(res.Rows, ref.Rows) {
							t.Errorf("%s: failed-over rows diverged from the healthy run", id)
						}
						if res.Failovers > 0 {
							sawFailover = true
							if len(res.Degraded) == 0 {
								t.Errorf("%s: %d failovers but no Degraded note", id, res.Failovers)
							}
						}
					}
				}
			})
		}
	}
	if !sawUnavailable {
		t.Error("sweep never produced an UnavailableError — uncovered-fragment path untested")
	}
	if !sawFailover {
		t.Error("sweep never recorded a failover — replica-serving path untested")
	}

	// One recovered-then-ingested configuration: a node dies and a
	// recovery round re-replicates its stranded triples into overlays,
	// writes land in the broadcast delta, and then every node dies in
	// turn — so a failover read must find the overlay copies while the
	// delta rows are surfaced, checked against the single-node reference
	// over the post-write dataset.
	t.Run("recovered+ingested/2f/P4", func(t *testing.T) {
		const src = `SELECT * WHERE { ?x <http://knows> ?y . ?z <http://knows> ?y . }`
		ds := failoverDataset()
		sys, err := Open(ds, WithMethod(mustMethod(t, "2f")), WithNodes(4),
			failoverBreakerOff, WithObservability())
		if err != nil {
			t.Fatal(err)
		}
		recovered := -1
		for node := 0; node < 4 && recovered < 0; node++ {
			if _, err := sys.Run(context.Background(), src, WithFaultInjection(killNode(node))); errors.Is(err, ErrUnavailable) {
				recovered = node
			}
		}
		if recovered < 0 {
			t.Fatal("no dead node stranded a <knows> triple — the configuration no longer reaches recovery")
		}
		sys.WaitForMigrations()
		if applied, _ := recoveryRounds(sys); applied != 1 {
			t.Fatalf("%d recovery rounds applied, want 1", applied)
		}
		ds.Add("http://p0", "http://knows", "http://p5")
		ds.Add("http://new0", "http://knows", "http://p1")
		ds.Add("http://new1", "http://knows", "http://new1")
		if sys.engine.Snapshot().DeltaLen() == 0 {
			t.Fatal("writes did not land in the broadcast delta")
		}
		want, err := Reference(ds, mustParse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 4; node++ {
			res, err := sys.Run(context.Background(), src, WithFaultInjection(killNode(node)))
			if err != nil {
				var ue *UnavailableError
				if !errors.As(err, &ue) || ue.Missing <= 0 || node == recovered {
					t.Errorf("node %d: err = %v (%T), want rows, or an *UnavailableError with a Missing count for an unrecovered node", node, err, err)
				}
				continue
			}
			sameRows(t, fmt.Sprintf("node %d dead", node), res, want)
			if node == recovered && res.Failovers == 0 {
				t.Errorf("node %d dead: no failover recorded", node)
			}
		}
	})
}

// TestFailoverWithoutPolicyFailsFast pins the no-failover twin's
// failure mode: with node fault sites armed but WithNodeFailover
// absent, the first faulted node operation fails the query immediately
// with the typed error — no retries, no replica serving.
func TestFailoverWithoutPolicyFailsFast(t *testing.T) {
	sys, err := Open(failoverDataset(), WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	faults := NewFaultSet(chaosSeed(t))
	faults.Arm(FaultNodeScan(2), 1)
	_, err = sys.Run(context.Background(), failoverQueries[0], WithFaultInjection(faults))
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v (%T), want *UnavailableError", err, err)
	}
	if len(ue.Nodes) != 1 || ue.Nodes[0] != 2 {
		t.Errorf("Nodes = %v, want [2]", ue.Nodes)
	}
	if ue.Op != "scan" {
		t.Errorf("Op = %q, want scan", ue.Op)
	}
}

// TestFailoverRecoveryReplicates drives the full degraded-placement
// loop: a dead node strands its unreplicated triples, the first query
// that needs them fails with UnavailableError, the failure triggers a
// recovery round that re-replicates the stranded triples
// onto healthy nodes, and the same query then succeeds via failover
// with rows bit-identical to the healthy run — while the node is still
// down.
func TestFailoverRecoveryReplicates(t *testing.T) {
	ds := failoverDataset()
	sys, err := Open(ds, WithNodes(4),
		failoverBreakerOff,
		WithObservability(WithSlowQueryLog(32, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Find a node whose fragment is NOT fully covered (a self-loop
	// landed there under hash-so) and a query that needs its triples.
	view := sys.engine.Snapshot().View()
	dead := -1
	for i := 0; i < view.Nodes(); i++ {
		if !nodeCovered(view, i) {
			dead = i
			break
		}
	}
	if dead < 0 {
		t.Fatal("no uncovered node under hash-so — dataset needs a self-loop")
	}
	var src string
	var ref [][]TermID
	for _, q := range failoverQueries {
		res, err := sys.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		faults := NewFaultSet(chaosSeed(t))
		faults.Arm(FaultNodeScan(dead), 1)
		if _, err := sys.Run(context.Background(), q, WithFaultInjection(faults)); errors.Is(err, ErrUnavailable) {
			src, ref = q, res.Rows
			break
		}
	}
	if src == "" {
		t.Fatal("no query needs the uncovered node's stranded triples")
	}
	// The failing run above triggered a recovery round. Once it lands,
	// the stranded triples have live copies, so the same query succeeds
	// by failover with identical rows, node still dead.
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied != 1 || failed != 0 {
		t.Fatalf("%d recovery rounds applied, %d failed; want 1 and 0", applied, failed)
	}
	faults := NewFaultSet(chaosSeed(t))
	faults.Arm(FaultNodeScan(dead), 1)
	res, err := sys.Run(context.Background(), src, WithFaultInjection(faults))
	if err != nil {
		t.Fatalf("post-recovery run still fails: %v", err)
	}
	if !chaosRowsEqual(res.Rows, ref) {
		t.Error("post-recovery failover rows diverged from the healthy run")
	}
	if res.Failovers == 0 {
		t.Error("post-recovery run reports no failovers — node should still be dead")
	}
	// The slow-query log kept both the typed failure and the degraded
	// success with its failover count.
	var loggedUnavailable, loggedFailover bool
	for _, e := range sys.SlowQueries() {
		if e.Err != "" {
			loggedUnavailable = true
		}
		if e.Failovers > 0 {
			loggedFailover = true
		}
	}
	if !loggedUnavailable || !loggedFailover {
		t.Errorf("slow log: unavailable=%v failover=%v, want both", loggedUnavailable, loggedFailover)
	}
}

// TestFailoverBreakerRecovers exercises the health lifecycle end to
// end on a served system at the breaker's fixed settings (3
// consecutive failures trip it, it stays open 1s, 2 clean probes close
// it): sustained scan failures trip node 1's breaker open (visible in
// NodeHealth), later healthy runs probe it half-open and close it
// again, and serving is bit-identical throughout.
func TestFailoverBreakerRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sys, err := Open(failoverDataset(), WithNodes(2),
		WithNodeFailover(NodeFailoverConfig{MaxAttempts: 1, Clock: clock}))
	if err != nil {
		t.Fatal(err)
	}
	src := failoverQueries[0]
	ref, err := sys.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	// Hash-so on two nodes: node 1 may hold stranded triples, so the
	// faulted runs may fail Unavailable — the breaker must trip either
	// way, and that is what this test is about.
	faults := NewFaultSet(chaosSeed(t))
	faults.Arm(FaultNodeScan(1), 1)
	for i := 0; i < 3; i++ {
		res, err := sys.Run(context.Background(), src, WithFaultInjection(faults))
		if err == nil && !chaosRowsEqual(res.Rows, ref.Rows) {
			t.Fatalf("faulted run %d: rows diverged", i)
		}
		if err != nil && !errors.Is(err, ErrUnavailable) {
			t.Fatalf("faulted run %d: %v", i, err)
		}
	}
	if st := sys.NodeHealth(); st[1].State != NodeOpen {
		t.Fatalf("node 1 breaker = %v after sustained failures, want open", st[1].State)
	}
	// While open, even un-faulted runs treat node 1 as dead (served
	// from replicas or Unavailable) without paying retries.
	if res, err := sys.Run(context.Background(), src); err == nil {
		if !chaosRowsEqual(res.Rows, ref.Rows) {
			t.Fatal("breaker-open run: rows diverged")
		}
		if res.Failovers == 0 {
			t.Error("breaker-open run did not report failover")
		}
	} else if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("breaker-open run: %v", err)
	}
	// After the open second the breaker goes half-open; two clean
	// probes (one per run here) close it and serving returns to the
	// healthy path.
	now = now.Add(2 * time.Second)
	for probe, want := range []NodeState{NodeHalfOpen, NodeHealthy} {
		if _, err := sys.Run(context.Background(), src); err != nil {
			t.Fatalf("probe run %d: %v", probe, err)
		}
		if st := sys.NodeHealth(); st[1].State != want {
			t.Fatalf("node 1 breaker = %v after clean probe %d, want %v", st[1].State, probe, want)
		}
	}
	res, err := sys.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if !chaosRowsEqual(res.Rows, ref.Rows) || res.Failovers != 0 {
		t.Errorf("recovered run: rows ok=%v failovers=%d, want identical rows on the healthy path",
			chaosRowsEqual(res.Rows, ref.Rows), res.Failovers)
	}
}

// TestChaosFailover races node-death faults against cached reads and
// recovery rounds: half the fleet kills nodes on every run while the
// clean half must keep reading bit-identical rows through replica
// failover, recovery re-replicates stranded fragments in the
// background, and the storm must not leak goroutines.
func TestChaosFailover(t *testing.T) {
	seed := chaosSeed(t)
	before := runtime.NumGoroutine()
	sys, err := Open(failoverDataset(),
		WithNodes(4),
		WithPlanCache(64),
		WithAdmissionControl(128, 64),
		WithNodeFailover(NodeFailoverConfig{
			MaxAttempts: 2,
			RetryBase:   time.Microsecond,
		}),
		withBreaker(health.Config{OpenFor: time.Millisecond}),
		WithObservability(WithSlowQueryLog(256, 0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string][][]TermID, len(failoverQueries))
	for _, src := range failoverQueries {
		res, err := sys.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		refs[src] = res.Rows
	}

	const goroutines = 64
	const iters = 4
	done := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		src := failoverQueries[i%len(failoverQueries)]
		faults := NewFaultSet(seed*1000 + int64(i))
		// Half the fleet kills a rotating node on every operation; the
		// other half serves clean and must never see the difference
		// beyond (bit-identical) failover.
		killing := i%2 == 0
		if killing {
			node := (i / 2) % 4
			faults.Arm(FaultNodeScan(node), 1)
			faults.Arm(FaultNodeShuffle(node), 1)
		}
		go func(id string, src string, faults *FaultSet) {
			var firstErr error
			for it := 0; it < iters; it++ {
				res, err := sys.Run(context.Background(), src, WithFaultInjection(faults))
				if err != nil {
					if !errors.Is(err, ErrUnavailable) {
						firstErr = fmt.Errorf("%s iter %d: %w", id, it, err)
						break
					}
					continue // uncovered fragment: typed fast failure is correct
				}
				if !chaosRowsEqual(res.Rows, refs[src]) {
					firstErr = fmt.Errorf("%s iter %d: rows diverged", id, it)
					break
				}
			}
			done <- firstErr
		}(fmt.Sprintf("g%d(kill=%v)", i, killing), src, faults)
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	sys.WaitForMigrations()
	if applied, failed := recoveryRounds(sys); applied == 0 || failed != 0 {
		t.Errorf("%d recovery rounds applied, %d failed; want some and none", applied, failed)
	}

	// Post-storm: un-faulted serving must return to bit-identical rows
	// (breakers may need their probe window to close).
	deadline := time.Now().Add(5 * time.Second)
	for _, src := range failoverQueries {
		for {
			res, err := sys.Run(context.Background(), src)
			if err == nil && chaosRowsEqual(res.Rows, refs[src]) && res.Failovers == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("post-chaos %q did not return to healthy serving: err=%v", src, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Goroutine-leak diff: everything the storm spawned must be gone.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
