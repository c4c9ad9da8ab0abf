package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sparqlopt/internal/rdf"
)

// randomRelation builds a relation of rows drawn from a small value
// domain, so joins and dedups hit plenty of matches and duplicates.
func randomRelation(r *rand.Rand, vars []string, rows, domain int) *Relation {
	rel := newRelation(vars, rows)
	buf := make([]rdf.TermID, len(vars))
	for i := 0; i < rows; i++ {
		for j := range buf {
			buf[j] = rdf.TermID(r.Intn(domain))
		}
		rel.appendCopy(buf)
	}
	return rel
}

// naiveJoin is the obvious quadratic natural join, used as the oracle.
func naiveJoin(a, b *Relation) *Relation {
	shared := sharedVars(a, b)
	aCols := make([]int, len(shared))
	bCols := make([]int, len(shared))
	for i, v := range shared {
		aCols[i] = a.colIndex(v)
		bCols[i] = b.colIndex(v)
	}
	out := &Relation{Vars: append([]string{}, a.Vars...)}
	var bExtra []int
	for j, v := range b.Vars {
		if a.colIndex(v) < 0 {
			out.Vars = append(out.Vars, v)
			bExtra = append(bExtra, j)
		}
	}
	for _, arow := range a.Rows {
		for _, brow := range b.Rows {
			if !equalOn(arow, aCols, brow, bCols) {
				continue
			}
			row := append([]rdf.TermID{}, arow...)
			for _, j := range bExtra {
				row = append(row, brow[j])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// sortedKeys canonicalizes a relation's rows for comparison.
func sortedKeys(rel *Relation) []string {
	keys := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		keys[i] = fmt.Sprint(row)
	}
	sort.Strings(keys)
	return keys
}

func sameRows(t *testing.T, got, want *Relation, label string) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows vs %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d: %s vs %s", label, i, g[i], w[i])
		}
	}
}

// TestHashJoinMatchesNaive cross-checks the integer-hash join against
// the quadratic oracle over many random inputs, including schemas
// with zero, one and multiple shared variables.
func TestHashJoinMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	schemas := []struct{ av, bv []string }{
		{[]string{"x", "y"}, []string{"y", "z"}},
		{[]string{"x", "y", "z"}, []string{"y", "z", "w"}},
		{[]string{"x"}, []string{"y"}}, // cross product
		{[]string{"x", "y"}, []string{"x", "y"}},
	}
	for trial := 0; trial < 40; trial++ {
		sc := schemas[trial%len(schemas)]
		a := randomRelation(r, sc.av, r.Intn(60), 5)
		b := randomRelation(r, sc.bv, r.Intn(60), 5)
		got, err := hashJoin(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, naiveJoin(a, b), fmt.Sprintf("trial %d %v⋈%v", trial, sc.av, sc.bv))
	}
}

// TestDedupMatchesNaive cross-checks hash dedup against a string-set
// oracle and verifies canonical (sorted) order.
func TestDedupMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, []string{"a", "b"}, 200, 4) // heavy duplication
		seen := map[string]bool{}
		var want [][]rdf.TermID
		for _, row := range rel.Rows {
			k := fmt.Sprint(row)
			if !seen[k] {
				seen[k] = true
				want = append(want, row)
			}
		}
		rel.dedup()
		if len(rel.Rows) != len(want) {
			t.Fatalf("trial %d: dedup kept %d rows, want %d", trial, len(rel.Rows), len(want))
		}
		for i := 1; i < len(rel.Rows); i++ {
			a, b := rel.Rows[i-1], rel.Rows[i]
			if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				t.Fatalf("trial %d: rows not in canonical order at %d: %v, %v", trial, i, a, b)
			}
		}
	}
}

// TestProjectMatchesNaive cross-checks projection+dedup against an
// oracle, including column reordering.
func TestProjectMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, []string{"a", "b", "c"}, 150, 4)
		vars := [][]string{{"b"}, {"c", "a"}, {"a", "b", "c"}}[trial%3]
		cols := make([]int, len(vars))
		for i, v := range vars {
			cols[i] = rel.colIndex(v)
		}
		seen := map[string]bool{}
		want := &Relation{Vars: vars}
		for _, row := range rel.Rows {
			nrow := make([]rdf.TermID, len(cols))
			for i, c := range cols {
				nrow[i] = row[c]
			}
			if k := fmt.Sprint(nrow); !seen[k] {
				seen[k] = true
				want.Rows = append(want.Rows, nrow)
			}
		}
		got := rel.project(vars)
		sameRows(t, got, want, fmt.Sprintf("trial %d project %v", trial, vars))
	}
}

// TestArenaRowsStableAcrossGrowth: rows handed out before the arena
// outgrows its capacity must keep their values after many more
// appends force reallocation.
func TestArenaRowsStableAcrossGrowth(t *testing.T) {
	rel := newRelation([]string{"x", "y"}, 1) // tiny hint forces growth
	var want [][2]rdf.TermID
	for i := 0; i < 10000; i++ {
		row := []rdf.TermID{rdf.TermID(i), rdf.TermID(2 * i)}
		rel.appendCopy(row)
		want = append(want, [2]rdf.TermID{row[0], row[1]})
	}
	for i, row := range rel.Rows {
		if row[0] != want[i][0] || row[1] != want[i][1] {
			t.Fatalf("row %d corrupted after arena growth: %v", i, row)
		}
	}
}

// TestAppendMergedLayout: merged rows interleave a-row values with the
// selected b columns, appended into the arena.
func TestAppendMergedLayout(t *testing.T) {
	rel := newRelation([]string{"x", "y", "z"}, 2)
	rel.appendMerged([]rdf.TermID{1, 2}, []rdf.TermID{9, 3}, []int{1})
	rel.appendMerged([]rdf.TermID{4, 5}, []rdf.TermID{8, 6}, []int{1})
	if fmt.Sprint(rel.Rows) != "[[1 2 3] [4 5 6]]" {
		t.Fatalf("merged rows wrong: %v", rel.Rows)
	}
}

// TestSeqColsLarge covers the fallback past the static identity pool.
func TestSeqColsLarge(t *testing.T) {
	got := seqCols(40)
	for i, c := range got {
		if c != i {
			t.Fatalf("seqCols(40)[%d] = %d", i, c)
		}
	}
	if len(got) != 40 {
		t.Fatalf("len = %d", len(got))
	}
}

// TestRelationGrowthGeometric is the regression test grow()'s doc
// comment points at: appending n rows into a relation opened with no
// capacity hint must reallocate O(log₂ n) times, not O(n/epsilon) as
// Go's small-slice append growth would past ~1 KiB arenas. The alloc
// count per append run bounds reallocations: 2^14 two-column rows need
// ~15 arena doublings + ~11 row-slice doublings plus the two seed
// allocations — anything near the row count means growth went linear.
func TestRelationGrowthGeometric(t *testing.T) {
	const rows = 1 << 14
	row := []rdf.TermID{1, 2}
	allocs := testing.AllocsPerRun(5, func() {
		rel := newRelation([]string{"x", "y"}, 0)
		for i := 0; i < rows; i++ {
			row[0] = rdf.TermID(i)
			rel.appendCopy(row)
		}
		if len(rel.Rows) != rows {
			t.Fatalf("appended %d rows, kept %d", rows, len(rel.Rows))
		}
	})
	if allocs > 48 {
		t.Fatalf("appending %d rows cost %.0f allocations; geometric growth should need ~30", rows, allocs)
	}
}
