// Package engine executes physical plans on a simulated shared-nothing
// cluster: every computing node holds the fragment a partitioning
// method assigned to it, leaf scans and local joins run per node
// without communication, and the two distributed join algorithms of
// paper §II-D — k-way broadcast join and k-way repartition join — move
// intermediate results between nodes (their volume is reported in the
// execution metrics).
//
// Query results follow set semantics. The root emits each answer once,
// from its home node, where the placement names one; elsewhere the
// stream deduplicates rows, which absorbs the replication that
// partitioning methods such as Hash-SO and 2f introduce. A single-node
// reference executor provides the ground truth for integration tests.
//
// The data plane is columnar-adjacent: a relation's rows live in one
// flat TermID arena (row i is a slice of it). Joins hash nothing: their
// inputs are walked sorted on the join's variables — leaves as sorted
// permutation ranges, shipped relations deduplicated by a sort — and are
// merged (see sortedJoin). What still hashes — Reference's fold,
// projection, the root's seen-set — runs on 64-bit integer hashes with
// collision verification, never on materialized string keys.
package engine

import (
	"context"
	"slices"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
)

// Relation is a set of variable bindings: Rows[i][j] binds Vars[j].
// Rows produced by this package are backed by the shared arena; the
// exported [][]TermID shape is kept so stores, traces and tests can
// keep treating rows as independent slices.
type Relation struct {
	Vars []string
	Rows [][]rdf.TermID

	// arena is the flat backing storage rows are appended into. When
	// it outgrows its capacity, append moves it to a new array; rows
	// already handed out keep pointing into the old one, which is
	// correct (just retained until the relation dies).
	arena []rdf.TermID

	// charged is how many bytes of this relation chargeTo has already
	// reserved against a memory gauge, so repeated charges (before and
	// after an append loop grows the arena) only pay the delta.
	charged int64

	// sortedOn names the variable the rows are ordered on, "" when no
	// order is known: a gathered or scattered input deduplicated on its
	// join column, or a merge's output, which comes out in the order of
	// its first variable. A parent join on that variable alone walks the
	// rows as a sorted run instead of sorting or driving them (see
	// sortedJoin).
	sortedOn string
	// keys is that variable's column, kept by the sort that deduplicated
	// the rows, so that the nodes sharing a gathered input do not each
	// read it out of the rows again; nil when no sort kept it.
	keys []rdf.TermID
}

// chargeTo reserves this relation's storage footprint — the arena
// capacity, or the row payload for relations assembled from shared
// row slices — against the query's memory gauge, attributed to site.
// Calling it again after growth charges only the increase. A nil
// gauge is free. Each relation is owned by one goroutine while it is
// being built and charged, so charged needs no synchronization.
func (r *Relation) chargeTo(g *resilience.Gauge, site string) error {
	if g == nil || r == nil {
		return nil
	}
	n := int64(cap(r.arena))
	if n == 0 {
		n = int64(len(r.Rows) * len(r.Vars))
	}
	delta := n*termIDBytes - r.charged
	if delta <= 0 {
		return nil
	}
	if err := g.Reserve(site, delta); err != nil {
		return err
	}
	r.charged += delta
	return nil
}

// newRelation returns an empty relation with arena capacity for
// rowHint rows of len(vars) columns.
func newRelation(vars []string, rowHint int) *Relation {
	r := &Relation{Vars: vars}
	if hint := rowHint * len(vars); hint > 0 {
		r.arena = make([]rdf.TermID, 0, hint)
		r.Rows = make([][]rdf.TermID, 0, rowHint)
	}
	return r
}

// row returns the arena segment appended since mark as a full-capacity
// slice, so a later arena append can never write through it.
func (r *Relation) row(mark int) []rdf.TermID {
	return r.arena[mark:len(r.arena):len(r.arena)]
}

// grow ensures the arena has room for extra more TermIDs and the Rows
// slice for one more row, doubling capacities when they run out. Go's
// append grows large slices by only ~1.25x, which makes an unhinted
// append loop pay O(log₁.₂₅ n) reallocations-plus-copies; explicit
// doubling guarantees the textbook O(log₂ n) — see
// TestRelationGrowthGeometric. Rows already handed out keep pointing
// into the old arena, which stays correct (full-capacity subslices) at
// the price of retaining it until the relation dies.
func (r *Relation) grow(extra int) {
	if need := len(r.arena) + extra; need > cap(r.arena) {
		newCap := 2 * cap(r.arena)
		if newCap < need {
			newCap = need
		}
		if newCap < 64 {
			newCap = 64
		}
		arena := make([]rdf.TermID, len(r.arena), newCap)
		copy(arena, r.arena)
		r.arena = arena
	}
	if len(r.Rows) == cap(r.Rows) {
		newCap := 2 * cap(r.Rows)
		if newCap < 16 {
			newCap = 16
		}
		rows := make([][]rdf.TermID, len(r.Rows), newCap)
		copy(rows, r.Rows)
		r.Rows = rows
	}
}

// reserve makes room for rows more rows at once: the known size of a
// candidate range, so a scan of it grows the arena at most once.
func (r *Relation) reserve(rows int) {
	if need := len(r.arena) + rows*len(r.Vars); need > cap(r.arena) {
		arena := make([]rdf.TermID, len(r.arena), max(2*cap(r.arena), need))
		copy(arena, r.arena)
		r.arena = arena
	}
	if need := len(r.Rows) + rows; need > cap(r.Rows) {
		grown := make([][]rdf.TermID, len(r.Rows), max(2*cap(r.Rows), need))
		copy(grown, r.Rows)
		r.Rows = grown
	}
}

// appendCopy appends a copy of row into the arena.
func (r *Relation) appendCopy(row []rdf.TermID) {
	r.grow(len(row))
	mark := len(r.arena)
	r.arena = append(r.arena, row...)
	r.Rows = append(r.Rows, r.row(mark))
}

// appendMerged appends arow ++ brow[bExtra] without a per-row alloc.
func (r *Relation) appendMerged(arow, brow []rdf.TermID, bExtra []int) {
	r.grow(len(arow) + len(bExtra))
	mark := len(r.arena)
	r.arena = append(r.arena, arow...)
	for _, j := range bExtra {
		r.arena = append(r.arena, brow[j])
	}
	r.Rows = append(r.Rows, r.row(mark))
}

// appendProjected appends row restricted to cols.
func (r *Relation) appendProjected(row []rdf.TermID, cols []int) {
	r.grow(len(cols))
	mark := len(r.arena)
	for _, c := range cols {
		r.arena = append(r.arena, row[c])
	}
	r.Rows = append(r.Rows, r.row(mark))
}

// colIndex returns the column of v, or -1.
func (r *Relation) colIndex(v string) int {
	for i, name := range r.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// sharedVars returns the variables present in both relations, in a's
// column order.
func sharedVars(a, b *Relation) []string {
	var out []string
	for _, v := range a.Vars {
		if b.colIndex(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// hashCols folds the values of the given columns into a 64-bit hash
// (FNV-1a over the raw TermIDs with an avalanche finalizer). Equal
// column tuples hash equally; collisions are possible and every use
// below verifies candidates value-by-value.
func hashCols(row []rdf.TermID, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= uint64(row[c])
		h *= 1099511628211
	}
	// splitmix64 finalizer: FNV alone leaves consecutive TermIDs in
	// nearby buckets, which degenerates open addressing downstream.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// hashRow hashes every column of row.
func hashRow(row []rdf.TermID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// equalOn reports whether a's acols equal b's bcols value for value.
func equalOn(a []rdf.TermID, acols []int, b []rdf.TermID, bcols []int) bool {
	for i, c := range acols {
		if a[c] != b[bcols[i]] {
			return false
		}
	}
	return true
}

// equalRows reports whether two full rows are identical.
func equalRows(a, b []rdf.TermID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cancelEvery is how many hash-table operations a join or dedup loop
// performs between context polls — the execution-side mirror of the
// enumerator's per-worker cancellation counters.
const cancelEvery = 4096

// rowTable is an integer-hash multimap from column tuples to row
// indices: buckets of candidate rows per 64-bit hash, verified
// value-by-value on probe. It replaces the string-keyed maps the
// engine used to build per join.
type rowTable struct {
	buckets map[uint64][]int32
	rows    [][]rdf.TermID
	cols    []int
}

// newRowTable indexes rows on cols.
func newRowTable(rows [][]rdf.TermID, cols []int) *rowTable {
	t := &rowTable{
		buckets: make(map[uint64][]int32, len(rows)),
		rows:    rows,
		cols:    cols,
	}
	for i, row := range rows {
		h := hashCols(row, cols)
		t.buckets[h] = append(t.buckets[h], int32(i))
	}
	return t
}

// hashJoin joins two relations on all their shared variables (natural
// join): Reference's fold, an algorithm independent of the engine's
// sortedJoin. With no shared variables it degrades to the cross
// product. The probe loop polls ctx so runaway joins stay cancellable.
func hashJoin(ctx context.Context, a, b *Relation) (*Relation, error) {
	shared := sharedVars(a, b)
	aCols := make([]int, len(shared))
	bCols := make([]int, len(shared))
	for i, v := range shared {
		aCols[i] = a.colIndex(v)
		bCols[i] = b.colIndex(v)
	}
	// Output schema: a's vars then b's non-shared vars.
	outVars := append([]string{}, a.Vars...)
	var bExtra []int
	for j, v := range b.Vars {
		if a.colIndex(v) < 0 {
			outVars = append(outVars, v)
			bExtra = append(bExtra, j)
		}
	}
	// Build on the smaller side and probe with the other; either way a
	// match emits a's row merged with b's. ops counts probe steps and
	// emitted rows so even a degenerate cross product polls ctx
	// regularly.
	build, probe := a, b
	buildCols, probeCols := aCols, bCols
	probeA := len(a.Rows) > len(b.Rows)
	if probeA {
		build, probe = b, a
		buildCols, probeCols = bCols, aCols
	}
	out := newRelation(outVars, len(build.Rows))
	index := newRowTable(build.Rows, buildCols)
	ops := 0
	for _, prow := range probe.Rows {
		for _, bi := range index.buckets[hashCols(prow, probeCols)] {
			if ops++; ops&(cancelEvery-1) == 0 {
				if err := obs.Canceled(ctx, "join"); err != nil {
					return nil, err
				}
			}
			hit := build.Rows[bi]
			if !equalOn(prow, probeCols, hit, buildCols) {
				continue
			}
			if probeA {
				out.appendMerged(prow, hit, bExtra)
			} else {
				out.appendMerged(hit, prow, bExtra)
			}
		}
		if ops++; ops&(cancelEvery-1) == 0 {
			if err := obs.Canceled(ctx, "join"); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// dedup removes duplicate rows and puts the rest in lexicographic order:
// dedupOn the first column, which orders on the whole row.
func (r *Relation) dedup() {
	if len(r.Vars) == 0 {
		// Rows without columns are all equal.
		r.Rows = r.Rows[:min(len(r.Rows), 1)]
		return
	}
	r.dedupOn(0)
}

// dedupOn removes duplicate rows and orders the rest on column col, then
// on the whole row, so that copies are neighbours and one compare with
// the last row kept drops them. The relation is then sorted on col's
// variable, which a parent join merging on it relies on (see sortedOn).
func (r *Relation) dedupOn(col int) {
	rows, keys := keyOrder(r.Rows, col)
	n := 0 // rows kept, compacted in place
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && keys[hi] == keys[lo] {
			hi++
		}
		run := rows[lo:hi]
		if len(run) > 1 {
			slices.SortFunc(run, slices.Compare)
		}
		for _, row := range run {
			if n == 0 || !equalRows(rows[n-1], row) {
				rows[n], keys[n] = row, keys[lo]
				n++
			}
		}
		lo = hi
	}
	r.Rows, r.keys, r.sortedOn = rows[:n], keys[:n], r.Vars[col]
}

// keyOrder returns rows stably ordered on column col, and that column. It
// sorts one integer per row — the key in the high half, the row's index
// in the low one — instead of comparing rows, so the sort moves eight
// bytes and calls no comparator.
func keyOrder(rows [][]rdf.TermID, col int) ([][]rdf.TermID, []rdf.TermID) {
	order := make([]uint64, len(rows))
	for i, row := range rows {
		order[i] = uint64(row[col])<<32 | uint64(i)
	}
	slices.Sort(order)
	out := make([][]rdf.TermID, len(rows))
	keys := make([]rdf.TermID, len(rows))
	for i, o := range order {
		out[i], keys[i] = rows[uint32(o)], rdf.TermID(o>>32)
	}
	return out, keys
}

// sortRows orders rows lexicographically for deterministic output. Rows
// have equal width, so slices.Compare is the lexicographic order.
func (r *Relation) sortRows() {
	slices.SortFunc(r.Rows, slices.Compare)
}

// project returns the relation restricted to the named variables,
// deduplicated. Unknown variables are rejected by the caller. The
// duplicate check hashes the source row through the column map, so no
// row is materialized unless it survives.
func (r *Relation) project(vars []string) *Relation {
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = r.colIndex(v)
	}
	out := newRelation(append([]string{}, vars...), len(r.Rows))
	seen := make(map[uint64][]int32, len(r.Rows))
	idCols := seqCols(len(cols))
	for _, row := range r.Rows {
		h := hashCols(row, cols)
		dup := false
		for _, i := range seen[h] {
			if equalOn(row, cols, out.Rows[i], idCols) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], int32(len(out.Rows)))
		out.appendProjected(row, cols)
	}
	out.sortRows()
	return out
}

// seqCols returns [0, 1, ..., n-1] from a small static pool, so the
// identity column map costs nothing in hot loops.
func seqCols(n int) []int {
	if n <= len(identityCols) {
		return identityCols[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var identityCols = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}
