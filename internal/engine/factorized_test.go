package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/race"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/randquery"
)

// testRel builds a relation from int-valued rows.
func testRel(vars []string, rows ...[]int) *Relation {
	r := newRelation(vars, len(rows))
	buf := make([]rdf.TermID, len(vars))
	for _, row := range rows {
		for i, v := range row {
			buf[i] = rdf.TermID(v)
		}
		r.appendCopy(buf)
	}
	return r
}

// enumerateDistinct drains the serving enumerator over f projected onto
// vars: the distinct rows, sorted, plus how many candidates it walked.
func enumerateDistinct(f *FactorizedRelation, vars []string) (*Relation, int64) {
	out := newRelation(vars, 0)
	e := newFactEnum(f, vars)
	var enumerated int64
	for row := e.next(); row != nil; row = e.next() {
		enumerated++
		out.appendCopy(row)
	}
	out.dedup()
	out.sortRows()
	return out, enumerated
}

// flatRowsOf flattens a factorization the slow way — enumerating the
// full schema — and returns sorted rows.
func flatRowsOf(t *testing.T, f *FactorizedRelation) [][]rdf.TermID {
	t.Helper()
	out, _ := enumerateDistinct(f, f.Vars())
	return out.Rows
}

// joinFlat is the flat-path oracle: the natural join of rels, sorted.
func joinFlat(t *testing.T, rels []*Relation) *Relation {
	t.Helper()
	var schema []string
	for _, r := range rels {
		for _, v := range r.Vars {
			if !slices.Contains(schema, v) {
				schema = append(schema, v)
			}
		}
	}
	joined, err := joinAll(context.Background(), nil, "test", 0, rels, nil, seqCols(len(rels)), schema)
	if err != nil {
		t.Fatal(err)
	}
	joined.sortRows()
	return joined
}

// TestFactorizedFlatCountMatchesFlatJoin: the star case. Two
// satellites around a shared hub; flatCount must equal the flat join's
// cardinality without any flattening, and the full flatten must
// reproduce the flat join's rows. The hub value with no match in one
// input also exercises compact: its spine row must disappear.
func TestFactorizedFlatCountMatchesFlatJoin(t *testing.T) {
	mk := func() []*Relation {
		return []*Relation{
			testRel([]string{"x"}, []int{1}, []int{2}),
			testRel([]string{"x", "y"}, []int{1, 10}, []int{1, 11}, []int{2, 12}),
			testRel([]string{"x", "z"}, []int{1, 20}, []int{1, 21}),
		}
	}
	f, err := factorize(context.Background(), nil, "test", mk())
	if err != nil {
		t.Fatal(err)
	}
	want := joinFlat(t, mk())
	if got := f.flatCount(); got != int64(len(want.Rows)) {
		t.Fatalf("flatCount %d, flat join has %d rows", got, len(want.Rows))
	}
	if len(f.spine.Rows) != 1 {
		t.Fatalf("hub x=2 has no z match; spine kept %d rows, want 1", len(f.spine.Rows))
	}
	if len(f.sats) != 2 {
		t.Fatalf("got %d satellites, want 2", len(f.sats))
	}
	gotVars := f.Vars()
	if len(gotVars) != len(want.Vars) {
		t.Fatalf("schema %v vs flat %v", gotVars, want.Vars)
	}
	got := flatRowsOf(t, f)
	if len(got) != len(want.Rows) {
		t.Fatalf("flatten produced %d rows, want %d", len(got), len(want.Rows))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d: %v vs %v", i, got[i], want.Rows[i])
			}
		}
	}
}

// TestFactorizedSemiJoinFilter: an input with no extending columns is
// a pure filter — it must compact the spine and rewrite existing
// links, but never become a satellite (under set semantics its
// multiplicities are invisible).
func TestFactorizedSemiJoinFilter(t *testing.T) {
	rels := []*Relation{
		testRel([]string{"x", "y"}, []int{1, 10}, []int{2, 20}),
		testRel([]string{"x", "z"}, []int{1, 100}, []int{2, 200}, []int{2, 201}),
		testRel([]string{"x"}, []int{2}),
	}
	f, err := factorize(context.Background(), nil, "test", rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sats) != 1 {
		t.Fatalf("filter input became a satellite: %d groups, want 1", len(f.sats))
	}
	if len(f.spine.Rows) != 1 || f.spine.Rows[0][0] != 2 {
		t.Fatalf("spine after filter: %v, want the single x=2 row", f.spine.Rows)
	}
	if got := f.flatCount(); got != 2 {
		t.Fatalf("flatCount %d, want 2 (x=2 matches z=200,201)", got)
	}
	// Links must have been rewritten to the compacted spine.
	out, _ := enumerateDistinct(f, []string{"x", "z"})
	want := [][]int{{2, 200}, {2, 201}}
	if len(out.Rows) != len(want) {
		t.Fatalf("projected %d rows, want %d", len(out.Rows), len(want))
	}
	for i, w := range want {
		for j := range w {
			if out.Rows[i][j] != rdf.TermID(w[j]) {
				t.Fatalf("row %d: %v, want %v", i, out.Rows[i], w)
			}
		}
	}
}

// TestFactorizedAbsorbSnowflake: a chain a–b–c forces the snowflake
// case — c joins on a variable only satellite b exposes, so b must be
// absorbed into the spine before c can link. The result must still
// match the flat join exactly.
func TestFactorizedAbsorbSnowflake(t *testing.T) {
	mk := func() []*Relation {
		return []*Relation{
			testRel([]string{"x", "y"}, []int{1, 10}, []int{1, 11}),
			testRel([]string{"y", "z"}, []int{10, 5}, []int{11, 5}, []int{11, 6}),
			testRel([]string{"z", "w"}, []int{5, 7}, []int{6, 8}, []int{6, 9}),
		}
	}
	f, err := factorize(context.Background(), nil, "test", mk())
	if err != nil {
		t.Fatal(err)
	}
	// After absorbing b the spine holds x,y,z; c remains factored.
	if got := len(f.spine.Vars); got != 3 {
		t.Fatalf("spine schema %v, want x,y,z", f.spine.Vars)
	}
	if len(f.sats) != 1 {
		t.Fatalf("%d satellites after absorb, want 1", len(f.sats))
	}
	want := joinFlat(t, mk())
	if got := f.flatCount(); got != int64(len(want.Rows)) {
		t.Fatalf("flatCount %d, flat join has %d rows", got, len(want.Rows))
	}
	got := flatRowsOf(t, f)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d: %v vs %v", i, got[i], want.Rows[i])
			}
		}
	}
}

// TestFactorizedProjectionSkipsIgnoredGroups: projecting only spine
// columns must enumerate one candidate per spine row — the satellites'
// fanout affects multiplicity alone, which DISTINCT erases, so it is
// never walked.
func TestFactorizedProjectionSkipsIgnoredGroups(t *testing.T) {
	rels := []*Relation{
		testRel([]string{"x"}, []int{1}, []int{2}),
		testRel([]string{"x", "y"}, []int{1, 10}, []int{1, 11}, []int{2, 12}),
		testRel([]string{"x", "z"}, []int{1, 20}, []int{1, 21}, []int{2, 22}),
	}
	f, err := factorize(context.Background(), nil, "test", rels)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.flatCount(); got != 5 {
		t.Fatalf("flatCount %d, want 5", got)
	}
	out, enumerated := enumerateDistinct(f, []string{"x"})
	if enumerated != int64(len(f.spine.Rows)) {
		t.Fatalf("projection enumerated %d candidates, want %d (one per spine row)", enumerated, len(f.spine.Rows))
	}
	if len(out.Rows) != 2 {
		t.Fatalf("distinct x count %d, want 2", len(out.Rows))
	}
}

// TestFactorizedSaturatingCounts: the saturating arithmetic pins at
// MaxInt64 instead of wrapping.
func TestFactorizedSaturatingCounts(t *testing.T) {
	if got := satMul(math.MaxInt64/2, 3); got != math.MaxInt64 {
		t.Errorf("satMul overflow: %d", got)
	}
	if got := satAdd(math.MaxInt64-1, 5); got != math.MaxInt64 {
		t.Errorf("satAdd overflow: %d", got)
	}
	if got := satMul(0, math.MaxInt64); got != 0 {
		t.Errorf("satMul zero: %d", got)
	}
}

// forceFactorize annotates the plan root for the factorized path,
// returning false when the plan is a bare scan (nothing to factorize).
func forceFactorize(res *opt.Result) bool {
	if res.Plan.Alg == plan.Scan {
		return false
	}
	res.Plan.Factorize = true
	return true
}

// TestDeterminismFactorizedExecution is the factorized analogue of
// TestDeterminismParallelExecution: random queries across partitioning
// methods, executed with the root forced onto the factorized path at
// P ∈ {1,2,4,8}, must return bit-identical rows and metrics to the
// sequential factorized run, which in turn must equal the flat
// engine's result and the single-node reference. Under -race this
// also shakes out races in the factorized gather.
func TestDeterminismFactorizedExecution(t *testing.T) {
	trials := 10
	entities := 12
	if race.Enabled {
		trials = 5
		entities = 8
	}
	classes := []querygraph.Class{
		querygraph.Star, querygraph.Chain, querygraph.Cycle, querygraph.Tree, querygraph.Dense,
	}
	methods := []partition.Method{
		partition.HashSO{}, partition.TwoHopForward{}, partition.PathBMC{}, partition.UndirectedOneHop{},
	}
	r := rand.New(rand.NewSource(177))
	for trial := 0; trial < trials; trial++ {
		class := classes[trial%len(classes)]
		n := 3 + r.Intn(3)
		q, _ := randquery.Generate(class, n, int64(2000+trial))
		ds := datasetFor(r, q, entities)
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		m := methods[trial%len(methods)]
		placement, err := m.Partition(ds, 2+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		res := optimizeFor(t, ds, q, m, opt.TDAuto)
		if !forceFactorize(res) {
			continue
		}
		label := fmt.Sprintf("trial %d (%s, %s)", trial, class, m.Name())

		flatEngine := New(ds.Dict, placement)
		flatEngine.SetParallelism(1)
		flatPlan := *res.Plan
		flatPlan.Factorize = false
		flat, err := flatEngine.Execute(context.Background(), &flatPlan, q)
		if err != nil {
			t.Fatalf("%s flat: %v", label, err)
		}
		equalResults(t, flat, want, label+" flat vs reference")

		seqEngine := New(ds.Dict, placement)
		seqEngine.SetParallelism(1)
		seq, err := seqEngine.Execute(context.Background(), res.Plan, q)
		if err != nil {
			t.Fatalf("%s factorized sequential: %v", label, err)
		}
		if !seq.Factorized {
			t.Fatalf("%s: forced root did not take the factorized path", label)
		}
		equalResults(t, seq, flat, label+" factorized vs flat")
		if seq.FlatRowCount() != flat.FlatRowCount() {
			t.Errorf("%s: factorized flat count %d vs flat path %d",
				label, seq.FlatRowCount(), flat.FlatRowCount())
		}

		for _, p := range []int{2, 4, 8} {
			par := New(ds.Dict, placement)
			par.SetParallelism(p)
			got, err := par.Execute(context.Background(), res.Plan, q)
			if err != nil {
				t.Fatalf("%s P=%d: %v", label, p, err)
			}
			plabel := fmt.Sprintf("%s P=%d", label, p)
			equalResults(t, got, seq, plabel)
			if got.Metrics != seq.Metrics {
				t.Errorf("%s: metrics diverge: parallel %+v vs sequential %+v", plabel, got.Metrics, seq.Metrics)
			}
			if got.FlatRowCount() != seq.FlatRowCount() {
				t.Errorf("%s: flat count diverges: %d vs %d", plabel, got.FlatRowCount(), seq.FlatRowCount())
			}
		}
	}
}

// TestFactorizedEngineBenchQueries pins the factorized path against
// the flat engine and the reference on the hand-checked social-graph
// queries, across every partitioning method.
func TestFactorizedEngineBenchQueries(t *testing.T) {
	ds := socialDataset()
	methods := []partition.Method{
		partition.HashSO{}, partition.TwoHopForward{}, partition.TwoHopBidirectional{},
		partition.PathBMC{}, partition.UndirectedOneHop{},
	}
	for _, src := range testQueries {
		q := sparql.MustParse(src)
		want, err := Reference(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			placement, err := m.Partition(ds, 4)
			if err != nil {
				t.Fatal(err)
			}
			res := optimizeFor(t, ds, q, m, opt.TDAuto)
			if !forceFactorize(res) {
				continue
			}
			e := New(ds.Dict, placement)
			e.SetParallelism(1)
			got, err := e.Execute(context.Background(), res.Plan, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Factorized {
				t.Fatalf("%s %s: factorized path not taken", m.Name(), src[:20])
			}
			equalResults(t, got, want, fmt.Sprintf("%s %s", m.Name(), src[:20]))
		}
	}
}

// TestFactorizedTraceAndString: a factorized execution must surface
// itself in the result string and trace so operators can tell the
// representations apart.
func TestFactorizedTraceAndString(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT ?o WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`)
	m := partition.HashSO{}
	placement, err := m.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeFor(t, ds, q, m, opt.TDAuto)
	if !forceFactorize(res) {
		t.Skip("single-join plan collapsed to a scan")
	}
	e := New(ds.Dict, placement)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Factorized {
		t.Fatal("factorized path not taken")
	}
	if got.FlatRowCount() < int64(len(got.Rows)) {
		t.Errorf("flat count %d below distinct rows %d", got.FlatRowCount(), len(got.Rows))
	}
	s := got.String()
	if !containsStr(s, "factorized") {
		t.Errorf("result string %q does not mention factorization", s)
	}
	if got.Trace == nil || !got.Trace.Factorized {
		t.Error("trace root not marked factorized")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
