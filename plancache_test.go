package sparqlopt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"sparqlopt/internal/workload/lubm"
)

// cacheDataset builds a small social graph with enough predicate and
// constant variety to give eight distinct query shapes non-empty
// answers.
func cacheDataset() *Dataset {
	ds := NewDataset()
	people := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	orgs := []string{"acme", "globex"}
	for i, p := range people {
		ds.Add("http://"+p, "http://knows", "http://"+people[(i+1)%len(people)])
		ds.Add("http://"+p, "http://knows", "http://"+people[(i+2)%len(people)])
		ds.Add("http://"+p, "http://worksFor", "http://"+orgs[i%len(orgs)])
		ds.Add("http://"+p, "http://age", fmt.Sprintf("%d", 20+i))
	}
	for _, o := range orgs {
		ds.Add("http://"+o, "http://inCity", "http://berlin")
		ds.Add("http://"+o, "http://name", "n-"+o)
	}
	return ds
}

// Eight distinct fingerprints: different shapes, predicates and
// constant placements.
var cacheQueries = []string{
	`SELECT * WHERE { ?x <http://knows> ?y . }`,
	`SELECT * WHERE { ?x <http://knows> ?y . ?y <http://worksFor> ?o . }`,
	`SELECT * WHERE { ?x <http://worksFor> ?o . ?o <http://inCity> <http://berlin> . }`,
	`SELECT * WHERE { ?x <http://knows> ?y . ?x <http://knows> ?z . }`,
	`SELECT * WHERE { <http://alice> <http://knows> ?y . ?y <http://age> ?a . }`,
	`SELECT * WHERE { ?x <http://worksFor> ?o . ?o <http://name> ?n . }`,
	`SELECT * WHERE { ?x <http://knows> ?y . ?y <http://knows> ?z . ?z <http://worksFor> ?o . }`,
	`SELECT * WHERE { ?o <http://inCity> ?c . ?o <http://name> ?n . }`,
}

func sameRows(t *testing.T, label string, got, want *ExecResult) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d width %d, want %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d col %d: %v, want %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestPlanCacheConcurrent hammers one cached System with 64 goroutines
// mixing 8 query fingerprints. Every result must be bit-identical to
// the uncached system's answer, and each fingerprint must be optimized
// exactly once per epoch. Run under -race this also exercises the
// singleflight and shard locking.
func TestPlanCacheConcurrent(t *testing.T) {
	ds := cacheDataset()
	cached, err := Open(ds, WithNodes(4), WithPlanCache(128))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(ds, WithNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*ExecResult, len(cacheQueries))
	for i, src := range cacheQueries {
		if want[i], err = plain.Run(context.Background(), src, WithAlgorithm(TDCMD)); err != nil {
			t.Fatalf("uncached %d: %v", i, err)
		}
		if want[i].CacheInfo.Enabled {
			t.Fatal("uncached system reports cache enabled")
		}
	}

	const workers = 64
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < len(cacheQueries); k++ {
				i := (w + k) % len(cacheQueries)
				got, err := cached.Run(context.Background(), cacheQueries[i], WithAlgorithm(TDCMD))
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if len(got.Rows) != len(want[i].Rows) {
					errc <- fmt.Errorf("worker %d query %d: %d rows, want %d",
						w, i, len(got.Rows), len(want[i].Rows))
					return
				}
				for r := range got.Rows {
					for c := range got.Rows[r] {
						if got.Rows[r][c] != want[i].Rows[r][c] {
							errc <- fmt.Errorf("worker %d query %d: row %d differs", w, i, r)
							return
						}
					}
				}
				if !got.CacheInfo.Enabled {
					errc <- fmt.Errorf("worker %d query %d: cache not enabled", w, i)
					return
				}
				if got.CacheInfo.Hit && enumeratedJoins(got) != 0 {
					errc <- fmt.Errorf("worker %d query %d: hit enumerated %d joins",
						w, i, enumeratedJoins(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := cached.CacheStats()
	if st.Misses != int64(len(cacheQueries)) {
		t.Errorf("%d misses, want exactly one optimization per fingerprint (%d)",
			st.Misses, len(cacheQueries))
	}
	if got, wantN := st.Hits+st.Misses, int64(workers*len(cacheQueries)); got != wantN {
		t.Errorf("hits+misses = %d, want %d", got, wantN)
	}

	// Predicate-scoped invalidation: a write touching only <knows>
	// re-optimizes exactly the fingerprints whose predicate sets
	// include it; the three shapes over {worksFor, inCity, name} keep
	// serving their cached plans without re-entering the optimizer.
	touchesKnows := map[int]bool{0: true, 1: true, 3: true, 4: true, 6: true}
	ds.Add("http://zed", "http://knows", "http://alice")
	for i, src := range cacheQueries {
		res, err := cached.Run(context.Background(), src, WithAlgorithm(TDCMD))
		if err != nil {
			t.Fatal(err)
		}
		if touchesKnows[i] && res.CacheInfo.Hit {
			t.Fatalf("stale plan served after a write to its predicate: %q", src)
		}
		if !touchesKnows[i] {
			if !res.CacheInfo.Hit {
				t.Fatalf("untouched-predicate shape re-optimized: %q", src)
			}
			if enumeratedJoins(res) != 0 {
				t.Fatalf("untouched-predicate shape enumerated %d joins: %q", enumeratedJoins(res), src)
			}
		}
	}
	st = cached.CacheStats()
	if want := int64(len(cacheQueries) + len(touchesKnows)); st.Misses != want {
		t.Errorf("%d misses after the write, want %d (only touched shapes re-optimize)", st.Misses, want)
	}
	if want := int64(len(cacheQueries) - len(touchesKnows)); st.Retained != want {
		t.Errorf("%d retained entries, want %d", st.Retained, want)
	}
	if want := int64(len(touchesKnows)); st.Invalidations != want {
		t.Errorf("%d invalidations after the write, want %d", st.Invalidations, want)
	}
	// And the re-optimized plans are cached again.
	res, err := cached.Run(context.Background(), cacheQueries[0], WithAlgorithm(TDCMD))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheInfo.Hit {
		t.Error("no hit at the new epoch")
	}
}

// TestPlanCacheTemplateReuse verifies that an isomorphic query —
// renamed variables, shuffled patterns, a different constant — is
// served from the cached template and still returns exactly the rows
// the reference evaluator produces for *its* constants.
func TestPlanCacheTemplateReuse(t *testing.T) {
	ds := cacheDataset()
	sys, err := Open(ds, WithNodes(4), WithPlanCache(32))
	if err != nil {
		t.Fatal(err)
	}
	seed := `SELECT * WHERE { <http://alice> <http://knows> ?y . ?y <http://age> ?a . }`
	if _, err := sys.Run(context.Background(), seed, WithAlgorithm(TDAuto)); err != nil {
		t.Fatal(err)
	}
	// Same template, different constant, shuffled + renamed.
	iso := `SELECT * WHERE { ?p <http://age> ?n . <http://bob> <http://knows> ?p . }`
	got, err := sys.Run(context.Background(), iso, WithAlgorithm(TDAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheInfo.Hit {
		t.Fatal("isomorphic query missed the cache")
	}
	if enumeratedJoins(got) != 0 {
		t.Fatalf("cache hit enumerated %d joins, want 0", enumeratedJoins(got))
	}
	q, err := ParseQuery(iso)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("test query returns no rows; constants don't exercise the remap")
	}
	sameRows(t, "isomorphic constants", got, want)
}

// TestPlanCacheDisabledByDefault: without WithPlanCache the serving
// path is unchanged and reports zero counters.
func TestPlanCacheDisabledByDefault(t *testing.T) {
	sys, err := Open(cacheDataset(), WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), cacheQueries[1], WithAlgorithm(TDAuto))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheInfo.Enabled || res.CacheInfo.Hit {
		t.Fatalf("cache info %+v on an uncached system", res.CacheInfo)
	}
	if enumeratedJoins(res) == 0 {
		t.Error("uncached run reported zero enumerated joins")
	}
	if st := sys.CacheStats(); st != (CacheCounters{}) {
		t.Errorf("counters %+v on an uncached system", st)
	}
}

// TestPlanCacheAllAlgorithms runs each cacheable enumerator through
// the cached serving path twice and checks hit behavior plus row
// equality against the reference evaluator.
func TestPlanCacheAllAlgorithms(t *testing.T) {
	ds := cacheDataset()
	sys, err := Open(ds, WithNodes(4), WithPlanCache(64))
	if err != nil {
		t.Fatal(err)
	}
	src := cacheQueries[6]
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{TDCMD, TDCMDP, HGRTDCMD, TDAuto} {
		cold, err := sys.Run(context.Background(), src, WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%v cold: %v", algo, err)
		}
		if cold.CacheInfo.Hit {
			t.Fatalf("%v: cold run hit — algorithms must not share plan slots", algo)
		}
		warm, err := sys.Run(context.Background(), src, WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%v warm: %v", algo, err)
		}
		if !warm.CacheInfo.Hit {
			t.Fatalf("%v: warm run missed", algo)
		}
		sameRows(t, fmt.Sprintf("%v cold", algo), cold, want)
		sameRows(t, fmt.Sprintf("%v warm", algo), warm, want)
	}
}

// TestPlanCacheStatsPerConstant: two queries of one canonical shape
// that differ only in a constant are each optimized under their own
// statistics. The shape has its subject/object constants lifted out,
// so statistics kept per shape would cost the second query with the
// first one's counts: here, an advisor that exists, then one that does
// not (card 0).
func TestPlanCacheStatsPerConstant(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 2, Seed: 1})
	cached, err := Open(ds, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(ds)
	if err != nil {
		t.Fatal(err)
	}
	query := func(prof string) string {
		return `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?x ub:takesCourse ?c . ?x ub:advisor <http://www.Department0.University0.edu/` + prof + `> . }`
	}
	ctx := context.Background()
	if _, err := cached.Optimize(ctx, query("FullProfessor0")); err != nil {
		t.Fatal(err)
	}
	missing := query("FullProfessor999")
	got, err := cached.Optimize(ctx, missing)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Optimize(ctx, missing)
	if err != nil {
		t.Fatal(err)
	}
	if want.Plan.Card != 0 {
		t.Fatalf("uncached card %v for an advisor that does not exist, want 0", want.Plan.Card)
	}
	if math.Float64bits(got.Plan.Cost) != math.Float64bits(want.Plan.Cost) ||
		math.Float64bits(got.Plan.Card) != math.Float64bits(want.Plan.Card) {
		t.Fatalf("cached: cost %v card %v; uncached: cost %v card %v",
			got.Plan.Cost, got.Plan.Card, want.Plan.Cost, want.Plan.Card)
	}
}

// enumeratedJoins is the number of join operators res's own
// optimization enumerated: 0 on a plan-cache hit (no enumeration
// happened), the optimizer's CMD counter otherwise.
func enumeratedJoins(res *ExecResult) int64 {
	if res.Opt == nil || res.CacheInfo.Hit {
		return 0
	}
	return res.Opt.Counter.CMDs
}
