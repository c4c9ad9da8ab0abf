package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
)

// sortedJoin is a join operator's per-node join, answered the way RDF-3X
// answers a join: by merging sorted inputs, with nothing hashed. It is a
// trie join (Leapfrog Triejoin, Veldhuizen, ICDT 2014) over an ordered
// list of variables: the inputs holding the first variable are
// intersected on it by galloping seeks, leapfrog style; within each key
// they all hold, the inputs holding the second variable are intersected
// on it within that key's groups, and so on. A local join runs it with
// its full variable order (see joinOrder); a broadcast or repartition
// join with its one join variable, checking any other variable two
// inputs share for equality as the rows are emitted.
//
// An input is walked as one of two kinds of sorted run. A scan leaf
// whose permutation orders its constants first and then its variables in
// the join's order (see orderedAs) is never read: its runs are its
// candidate ranges, its base range and one per delta chunk. A relation —
// a broadcast's gathered input, a scatter bucket, a child join's output,
// a leaf that had to be read — is one run once it is sorted on its
// variables in the join's order; a relation already sorted on its one
// join variable (see Relation.sortedOn) is taken as it is, and any other
// is sorted on its node.
//
// The one-level join keeps a driver instead: when every input holds the
// one variable, at most one input per node that is out of key order and
// not probed is walked in its own order, each of its rows looking its
// key up in the other inputs. Any further unordered input is sorted on
// the node first.
//
// Once every variable of the order is bound, the join emits the cross
// product of the inputs' final groups; a variable only one input holds
// is bound from that input's group. The node's output is the multiset
// the hash fold over the same inputs returns, under schema: the order's
// variables, then every input's others. Without a driver it comes out
// sorted on the first variable of the order.
//
// A leaf's postings are the entries of the final groups it contributes
// to a match, each group counted once per node: the entries the join
// takes rows from, not the ones a search steps over.
//
// The root join is told two more things. What the query projects (see
// project): when that drops a column, it emits only the projected ones,
// and an input that binds none of them and nothing another input checks
// is probed for one agreeing entry, not enumerated. And, for a root local join, the home rule (see
// homeOn): a match is emitted only on the home of its anchor's binding.
type sortedJoin struct {
	order  []string
	schema []string
	inputs []joinInput // in the operator's input order
	// emits lists the inputs in the order the cross product of their
	// final groups nests them, the smallest input outermost.
	emits []int
	// at[d] lists the inputs holding order[d], each with its own level
	// of that variable.
	at [][]levelRef
	// drive marks the one-level join, where every input holds the
	// variable and an unordered input may drive.
	drive bool

	// out lists the schema columns the root join emits, nil for every
	// column, and outVars their variables; probe[i] marks input i as
	// probed (see project).
	out     []int
	outVars []string
	probe   []bool
	// home, when non-nil, keeps a match only on the home of its binding of
	// schema column anchor: a level when anchor < len(order), else the
	// column input anchorIn sets (see homeOn).
	home     func(rdf.TermID) int
	anchor   int
	anchorIn int
}

// levelRef names one input's own level at some depth of the order.
type levelRef struct{ input, level int }

// joinInput is one input as the join walks it.
type joinInput struct {
	leaf *scanLeaf // the input's scan leaf, nil for a relation
	// cols holds the input's columns of its variables in the order, one
	// per own level.
	cols []int
	// ranges marks a leaf walked through its sorted ranges, in
	// permutation p; comps holds the triple component of each own level.
	ranges bool
	p      perm
	comps  []int
	// delta is the leaf's range in every delta chunk holding candidates;
	// the chunks are on every node, so it is shared by all of them.
	delta [][]rdf.Triple
	// set lists the schema columns of the variables outside the order
	// the input binds first, check the ones an earlier input bound and
	// the input's rows must agree with, each with the input's column that
	// binds it; varComps maps those columns to triple components when
	// the input's ranges are walked.
	set, check []colComp
	varComps   [3]int
	// revisit marks a leaf that may reach the same final group under
	// several matches: one missing a variable of the order.
	revisit bool
}

// colComp maps a schema column to the input column that binds it.
type colComp struct{ col, comp int }

// joinOrder returns the variables a local join over inputs with the
// given variables and cluster-wide sizes intersects on, level by level:
// every variable two or more inputs hold. The ones shared by the most
// inputs go first, ties broken by the smallest input holding the
// variable and then by first appearance; each next variable shares an
// input with one already ordered whenever any does. It is computed once
// per operator, never per node, so every node produces one schema.
func joinOrder(vars [][]string, sizes []int64) []string {
	inputs, smallest := map[string]int{}, map[string]int64{}
	var cands, order []string
	for i, vs := range vars {
		for _, v := range vs {
			if inputs[v]++; inputs[v] == 1 {
				cands, smallest[v] = append(cands, v), sizes[i]
			}
			smallest[v] = min(smallest[v], sizes[i])
		}
	}
	cands = slices.DeleteFunc(cands, func(v string) bool { return inputs[v] < 2 })
	// connected reports whether some input holds v and an ordered variable.
	connected := func(v string) bool {
		return len(order) == 0 || slices.ContainsFunc(vars, func(vs []string) bool {
			return slices.Contains(vs, v) && slices.ContainsFunc(vs, func(u string) bool { return slices.Contains(order, u) })
		})
	}
	better := func(v, w string) bool {
		if cv, cw := connected(v), connected(w); cv != cw {
			return cv
		}
		return inputs[v] > inputs[w] || inputs[v] == inputs[w] && smallest[v] < smallest[w]
	}
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if better(cands[i], cands[best]) {
				best = i
			}
		}
		order = append(order, cands[best])
		cands = slices.Delete(cands, best, best+1)
	}
	return order
}

// newSortedJoin returns the join over inputs with the given variables
// and cluster-wide sizes, intersecting them on order, where leaves[i] is
// input i's lazily opened scan leaf or nil. Which leaves are walked
// through their ranges follows from the patterns and the order alone.
func newSortedJoin(vars [][]string, sizes []int64, leaves []*scanLeaf, order []string) *sortedJoin {
	s := &sortedJoin{order: order, schema: slices.Clone(order), at: make([][]levelRef, len(order)), inputs: make([]joinInput, len(vars))}
	s.emits = make([]int, len(vars))
	for i := range s.emits {
		s.emits[i] = i
	}
	slices.SortStableFunc(s.emits, func(a, b int) int { return cmp.Compare(sizes[a], sizes[b]) })
	for _, i := range s.emits {
		vs := vars[i]
		in := joinInput{leaf: leaves[i]}
		for j, v := range vs {
			if slices.Contains(order, v) {
				continue
			}
			if c := slices.Index(s.schema, v); c >= 0 {
				in.check = append(in.check, colComp{col: c, comp: j})
			} else {
				in.set = append(in.set, colComp{col: len(s.schema), comp: j})
				s.schema = append(s.schema, v)
			}
		}
		s.inputs[i] = in
	}
	for i, vs := range vars {
		in := &s.inputs[i]
		for d, v := range order {
			if c := slices.Index(vs, v); c >= 0 {
				s.at[d] = append(s.at[d], levelRef{input: i, level: len(in.cols)})
				in.cols = append(in.cols, c)
			}
		}
		if l := in.leaf; l != nil && !l.bp.repeated {
			for j := range vs {
				in.varComps[j] = varComp(&l.bp, j)
			}
			in.comps = make([]int, len(in.cols))
			for k, c := range in.cols {
				in.comps[k] = in.varComps[c]
			}
			in.p, in.ranges = l.bp.orderedAs(in.comps)
		}
		if in.ranges {
			for _, st := range in.leaf.snap.delta {
				if r := st.rangeIn(&in.leaf.bp, in.p); len(r) > 0 {
					in.delta = append(in.delta, r)
				}
			}
			in.revisit = len(in.cols) < len(order)
		}
	}
	// At every depth the inputs a group of an earlier level narrowed go
	// first, then the others smallest first: the sparsest input sets the
	// key the others seek to, and a level ends with the first input that
	// runs out.
	for _, refs := range s.at {
		slices.SortStableFunc(refs, func(a, b levelRef) int {
			if c := cmp.Compare(min(b.level, 1), min(a.level, 1)); c != 0 {
				return c
			}
			return cmp.Compare(sizes[a.input], sizes[b.input])
		})
	}
	s.drive = len(order) == 1 && len(s.at[0]) == len(vars)
	return s
}

// project makes the root join emit only the columns of vars, in that
// order, and probe every input that sets no projected column and none
// another input checks: such an input contributes only the existence of
// an agreeing entry, so one is enough. It reports whether each node's
// output is still a set, which holds when every column it drops is set
// by a probed input; a dropped level or enumerated column can bind two
// matches to one projected row. A projection that drops nothing leaves
// the join as it is: the stream reorders the columns.
func (s *sortedJoin) project(vars []string) (sets bool, err error) {
	for _, v := range vars {
		if !slices.Contains(s.schema, v) {
			return false, fmt.Errorf("engine: projected variable ?%s not bound by the query", v)
		}
	}
	drops := false
	for _, v := range s.schema {
		drops = drops || !slices.Contains(vars, v)
	}
	if !drops {
		return true, nil
	}
	const projected, checked = 1, 2
	s.out, s.outVars = make([]int, len(vars)), vars
	use := make([]uint8, len(s.schema))
	for i, v := range vars {
		s.out[i] = slices.Index(s.schema, v)
		use[s.out[i]] |= projected
	}
	for _, in := range s.inputs {
		for _, cc := range in.check {
			use[cc.col] |= checked
		}
	}
	s.probe = make([]bool, len(s.inputs))
	sets = true
	for i, in := range s.inputs {
		s.probe[i] = true
		for _, cc := range in.set {
			s.probe[i] = s.probe[i] && use[cc.col] == 0
		}
		for _, cc := range in.set {
			sets = sets && (s.probe[i] || use[cc.col]&projected != 0)
		}
	}
	for d := range s.order {
		sets = sets && use[d]&projected != 0
	}
	return sets, nil
}

// homeOn applies the home rule on variable v, which must be a variable
// of the join's schema, and reports whether it could.
func (s *sortedJoin) homeOn(v string, home func(rdf.TermID) int) bool {
	c := slices.Index(s.schema, v)
	if c < 0 {
		return false
	}
	s.home, s.anchor, s.anchorIn = home, c, -1
	for i, in := range s.inputs {
		if slices.ContainsFunc(in.set, func(cc colComp) bool { return cc.col == c }) {
			s.anchorIn = i
		}
	}
	return true
}

// vars returns the variables of the join's output.
func (s *sortedJoin) vars() []string {
	if s.out == nil {
		return s.schema
	}
	return s.outVars
}

// varComp returns the triple component binding variable column j of bp
// (which repeats no variable).
func varComp(bp *boundPattern, j int) int {
	switch j {
	case bp.sVar:
		return compS
	case bp.pVar:
		return compP
	}
	return compO
}

// span is the half-open index range [lo, hi) of one run.
type span struct{ lo, hi int }

// mergeCursor walks one input's sorted runs on one node: a leaf's triple
// ranges, or a relation's rows.
type mergeCursor struct {
	in     *joinInput
	ranges bool
	// runs are a leaf's triple ranges; rows a relation's rows and keys[l]
	// their column of own level l, contiguous so that a search reads no
	// row.
	runs [][]rdf.Triple
	rows [][]rdf.TermID
	keys [][]rdf.TermID
	// base backs runs when the base range is the only one (no delta
	// chunk holds candidates), sparing an allocation.
	base [1][]rdf.Triple
	// spans holds, for every own level l, rest(l) — the unvisited part of
	// the level within the group of level l−1 — and group(l), the current
	// key's entries, one span per run (a relation has one run). final is
	// the group the input contributes to a match: the last own level's,
	// or every entry when it has none.
	spans []span
	nruns int
	final []span
	// seen marks, for a revisiting or looked-up leaf, the final groups
	// counted already, by their first entry; offs[r] is run r's first
	// bit, and offs[len(runs)] their length.
	seen     []uint64
	offs     []int
	postings int64
}

// open starts own level l: its rest is the group of level l−1, or the
// whole of every run at the first level.
func (c *mergeCursor) open(l int) {
	if l > 0 {
		copy(c.rest(l), c.group(l-1))
		return
	}
	if !c.ranges {
		c.rest(0)[0] = span{0, len(c.rows)}
		return
	}
	for r, run := range c.runs {
		c.rest(0)[r] = span{0, len(run)}
	}
}

// seek drops every entry of level l keyed below k and returns the
// smallest key left; ok is false once the level is exhausted.
func (c *mergeCursor) seek(l int, k rdf.TermID) (head rdf.TermID, ok bool) {
	if !c.ranges {
		sp, keys := &c.rest(l)[0], c.keys[l]
		if k > 0 {
			sp.lo += firstKeyAbove(keys[sp.lo:sp.hi], k-1)
		}
		if sp.lo == sp.hi {
			return 0, false
		}
		return keys[sp.lo], true
	}
	comp := c.in.comps[l]
	rest := c.rest(l)
	for r := range rest {
		sp := &rest[r]
		if sp.lo == sp.hi {
			continue
		}
		run := c.runs[r][sp.lo:sp.hi]
		h := component(run[0], comp)
		if h < k {
			n := firstAbove(run, comp, k-1)
			if sp.lo += n; sp.lo == sp.hi {
				continue
			}
			h = component(run[n], comp)
		}
		if !ok || h < head {
			head, ok = h, true
		}
	}
	return head, ok
}

// take moves level l's entries keyed k from its rest into its group.
func (c *mergeCursor) take(l int, k rdf.TermID) {
	if !c.ranges {
		sp := &c.rest(l)[0]
		end := sp.lo + firstKeyAbove(c.keys[l][sp.lo:sp.hi], k)
		c.group(l)[0], sp.lo = span{sp.lo, end}, end
		return
	}
	comp := c.in.comps[l]
	rest, group := c.rest(l), c.group(l)
	for r, run := range c.runs {
		sp := &rest[r]
		end := sp.lo + firstAbove(run[sp.lo:sp.hi], comp, k)
		group[r], sp.lo = span{sp.lo, end}, end
	}
}

// lookup sets the one level's group to the entries keyed k, searching
// the whole of every run — a driver's keys come in no order — and
// reports whether there are any. The group's postings are counted once
// the driver row matches (see count), not per lookup: driver rows repeat
// keys.
func (c *mergeCursor) lookup(k rdf.TermID) bool {
	if !c.ranges {
		keys := c.keys[0]
		lo := lowerBound(keys, k)
		hi := lo + firstKeyAbove(keys[lo:], k)
		c.group(0)[0] = span{lo, hi}
		return hi > lo
	}
	found := false
	comp := c.in.comps[0]
	for r, run := range c.runs {
		lo := 0
		if k > 0 {
			lo = firstAbove(run, comp, k-1)
		}
		hi := lo + firstAbove(run[lo:], comp, k)
		c.group(0)[r] = span{lo, hi}
		found = found || hi > lo
	}
	return found
}

// track makes count remember the groups it counted, for a leaf that can
// reach one group under several matches.
func (c *mergeCursor) track() {
	c.offs = make([]int, len(c.runs)+1)
	for r, run := range c.runs {
		c.offs[r+1] = c.offs[r] + len(run)
	}
	c.seen = make([]uint64, c.offs[len(c.runs)]/64+1)
}

// count adds the leaf's final group to its postings, unless the group
// was counted under an earlier match.
func (c *mergeCursor) count() {
	var n int64
	first := -1
	for r, sp := range c.final {
		if c.seen != nil && sp.lo < sp.hi && first < 0 {
			first = c.offs[r] + sp.lo
		}
		n += int64(sp.hi - sp.lo)
	}
	if first >= 0 {
		w, bit := first>>6, uint64(1)<<(first&63)
		if c.seen[w]&bit != 0 {
			return
		}
		c.seen[w] |= bit
	}
	c.postings += n
}

// firstAbove returns the index of the first entry of ts — sorted on comp
// — whose comp is above k: a gallop from the front, then a binary search
// in the last step, so a seek costs the logarithm of what it skips.
func firstAbove(ts []rdf.Triple, comp int, k rdf.TermID) int {
	if len(ts) == 0 || component(ts[0], comp) > k {
		return 0
	}
	// Invariant: ts[lo] ≤ k, and ts[hi] > k when hi is in range.
	lo, hi, step := 0, len(ts), 1
	for lo+step < len(ts) {
		if component(ts[lo+step], comp) > k {
			hi = lo + step
			break
		}
		lo += step
		step *= 2
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if component(ts[mid], comp) > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// firstKeyAbove is firstAbove over a sorted key column.
func firstKeyAbove(keys []rdf.TermID, k rdf.TermID) int {
	if len(keys) == 0 || keys[0] > k {
		return 0
	}
	lo, hi, step := 0, len(keys), 1
	for lo+step < len(keys) {
		if keys[lo+step] > k {
			hi = lo + step
			break
		}
		lo += step
		step *= 2
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// lowerBound returns the index of the first key not below k. The halving
// step is arithmetic, with no data-dependent branch: a driver's keys come
// in random order, and a mispredicted branch per halving costs more than
// the comparison.
func lowerBound(keys []rdf.TermID, k rdf.TermID) int {
	base, n := 0, len(keys)
	for n > 1 {
		half := n >> 1
		below := int(uint64(int64(keys[base+half-1])-int64(k)) >> 63) // 1 when the key is below k
		base += half & -below
		n -= half
	}
	if n == 1 && keys[base] < k {
		base++
	}
	return base
}

// join joins node's inputs — rels[i] is input i's relation on the node,
// nil for a leaf not read there — charging the output to g under site as
// it grows and polling ctx every cancelEvery seeks and rows. An input
// without rows on the node ends it at once: on a point read, that is
// every node but the one or two holding the constant.
func (s *sortedJoin) join(ctx context.Context, g *resilience.Gauge, site string, node int, rels []*Relation) (*Relation, error) {
	hint := s.rowsOn(node, rels)
	if hint == 0 {
		return &Relation{Vars: s.vars()}, nil
	}
	j := mergeJoin{ctx: ctx, g: g, site: site, s: s, node: node, cursors: make([]mergeCursor, len(s.inputs)), row: make([]rdf.TermID, len(s.schema))}
	driver := -1
	for i := range s.inputs {
		in := &s.inputs[i]
		c := &j.cursors[i]
		c.in = in
		levels := max(len(in.cols), 1)
		rel := rels[i]
		if in.ranges && rel == nil {
			in.leaf.merged.Store(true)
			c.ranges = true
			c.base[0] = in.leaf.snap.stores[node].rangeIn(&in.leaf.bp, in.p)
			c.runs = append(c.base[:], in.delta...)
			c.alloc(levels, len(c.runs))
			if in.revisit {
				c.track()
			}
			continue
		}
		if rel == nil {
			var err error
			if rel, err = in.leaf.read(node); err != nil {
				return nil, err
			}
		}
		c.rows = rel.Rows
		c.alloc(levels, 1)
		switch {
		case len(in.cols) == 0:
		case len(in.cols) == 1 && rel.sortedOn == rel.Vars[in.cols[0]]:
			if c.keys = [][]rdf.TermID{rel.keys}; rel.keys == nil {
				c.keys[0] = column(c.rows, in.cols[0])
			}
		case !s.drive || s.probe != nil && s.probe[i]:
			// A probed input does not drive: its entries would each be a
			// driver row of their own, not one group to stop early in.
			c.rows, c.keys = lexOrder(c.rows, in.cols)
		// Out of key order: the largest such input drives, the others are
		// sorted here.
		case driver < 0:
			driver = i
		case len(c.rows) > len(j.cursors[driver].rows):
			prev := &j.cursors[driver]
			prev.rows, prev.keys = lexOrder(prev.rows, prev.in.cols)
			driver = i
		default:
			c.rows, c.keys = lexOrder(c.rows, in.cols)
		}
	}
	if driver >= 0 {
		// A driver's rows repeat keys: the leaves it looks them up in count
		// each group once.
		for i := range j.cursors {
			if c := &j.cursors[i]; c.ranges {
				c.track()
			}
		}
	}
	j.out = newRelation(s.vars(), hint)
	var err error
	if driver < 0 {
		if len(s.order) > 0 && s.out == nil {
			j.out.sortedOn = s.order[0]
		}
		err = j.level(0)
	} else {
		err = j.driveFrom(driver)
	}
	for i := range j.cursors {
		if c := &j.cursors[i]; c.ranges {
			c.in.leaf.scanned.Add(c.postings)
		}
	}
	if err != nil {
		return nil, err
	}
	return j.out, nil
}

// rowsOn returns the fewest rows any input holds on node, known before
// anything is read.
func (s *sortedJoin) rowsOn(node int, rels []*Relation) int {
	fewest := math.MaxInt
	for i, in := range s.inputs {
		if rel := rels[i]; rel != nil {
			fewest = min(fewest, len(rel.Rows))
		} else {
			fewest = min(fewest, in.leaf.size[node])
		}
	}
	return fewest
}

// alloc sizes the cursor's per-level spans for nruns runs; an input
// without a level contributes all of its entries to every match.
func (c *mergeCursor) alloc(levels, nruns int) {
	c.spans, c.nruns = make([]span, 2*levels*nruns), nruns
	c.final = c.group(levels - 1)
	if len(c.in.cols) == 0 {
		c.open(0)
		copy(c.final, c.rest(0))
	}
}

// rest returns own level l's unvisited spans.
func (c *mergeCursor) rest(l int) []span {
	return c.spans[2*l*c.nruns : (2*l+1)*c.nruns]
}

// group returns own level l's current key's spans.
func (c *mergeCursor) group(l int) []span {
	return c.spans[(2*l+1)*c.nruns : (2*l+2)*c.nruns]
}

// column returns column col of rows.
func column(rows [][]rdf.TermID, col int) []rdf.TermID {
	out := make([]rdf.TermID, len(rows))
	for i, row := range rows {
		out[i] = row[col]
	}
	return out
}

// lexOrder returns rows stably ordered on cols, the first the most
// significant, and each of those columns in that order: keyOrder from the
// last column to the first.
func lexOrder(rows [][]rdf.TermID, cols []int) ([][]rdf.TermID, [][]rdf.TermID) {
	keys := make([][]rdf.TermID, len(cols))
	for l := len(cols) - 1; l >= 0; l-- {
		rows, keys[0] = keyOrder(rows, cols[l])
	}
	for l := 1; l < len(cols); l++ {
		keys[l] = column(rows, cols[l])
	}
	return rows, keys
}

// mergeJoin is one node's join in progress.
type mergeJoin struct {
	ctx         context.Context
	g           *resilience.Gauge
	site        string
	s           *sortedJoin
	node        int
	cursors     []mergeCursor // in input order
	out         *Relation
	row         []rdf.TermID // the row being built, in the schema's columns
	ops, polled int
}

// level intersects the inputs holding order[d] within their current
// groups: it seeks every one to the largest key any of them is on until
// they all agree, then takes that key's group in each and goes one level
// deeper, and steps past the key.
func (j *mergeJoin) level(d int) error {
	if d == len(j.s.order) {
		return j.match()
	}
	refs := j.s.at[d]
	for _, ref := range refs {
		j.cursors[ref.input].open(ref.level)
	}
	key := rdf.TermID(0)
	for {
		match := true
		for _, ref := range refs {
			h, ok := j.cursors[ref.input].seek(ref.level, key)
			if !ok {
				return nil
			}
			if h != key {
				key, match = h, false
			}
		}
		j.ops += len(refs)
		if err := j.poll(); err != nil {
			return err
		}
		if j.offHome(d, key) {
			// No match under this key is emitted here: no input seeks it.
			if key == math.MaxUint32 {
				return nil
			}
			key++
			continue
		}
		if !match {
			continue
		}
		for _, ref := range refs {
			j.cursors[ref.input].take(ref.level, key)
		}
		j.row[d] = key
		if err := j.level(d + 1); err != nil {
			return err
		}
		if key == math.MaxUint32 {
			return nil
		}
		key++
	}
}

// offHome reports whether key, bound at level d, is the anchor's binding
// and homed on another node.
func (j *mergeJoin) offHome(d int, key rdf.TermID) bool {
	return j.s.home != nil && d == j.s.anchor && j.s.home(key) != j.node
}

// match emits the rows of one binding of the whole order, with every
// leaf's final group counted.
func (j *mergeJoin) match() error {
	for i := range j.cursors {
		if c := &j.cursors[i]; c.ranges {
			c.count()
		}
	}
	if err := j.emit(0); err != nil {
		return err
	}
	return j.out.chargeTo(j.g, j.site)
}

// driveFrom walks the driver's rows in their own order, looking each
// row's key up in every other input and emitting the row's matches.
func (j *mergeJoin) driveFrom(driver int) error {
	drv := &j.cursors[driver]
	rows, col := drv.rows, drv.in.cols[0]
rows:
	for i, row := range rows {
		j.ops += len(j.cursors)
		if err := j.poll(); err != nil {
			return err
		}
		k := row[col]
		if j.offHome(0, k) {
			continue
		}
		for d := range j.cursors {
			if d != driver && !j.cursors[d].lookup(k) {
				continue rows
			}
		}
		for d := range j.cursors {
			if c := &j.cursors[d]; c.ranges {
				c.count()
			}
		}
		drv.group(0)[0] = span{i, i + 1}
		j.row[0] = k
		if err := j.emit(0); err != nil {
			return err
		}
		if err := j.out.chargeTo(j.g, j.site); err != nil {
			return err
		}
	}
	return nil
}

// emit appends the cross product of the final groups of the inputs
// emits[e] and beyond, extending the row the earlier ones bound.
func (j *mergeJoin) emit(e int) error {
	if e == len(j.cursors) {
		if j.s.out != nil {
			j.out.appendProjected(j.row, j.s.out)
		} else {
			j.out.appendCopy(j.row)
		}
		j.ops++
		return j.poll()
	}
	i := j.s.emits[e]
	c := &j.cursors[i]
	in := c.in
	// A probed input stops at its first agreeing entry; the input that
	// sets the anchor skips the entries homed elsewhere.
	probe := j.s.probe != nil && j.s.probe[i]
	homes := j.s.home != nil && i == j.s.anchorIn
	if c.ranges {
		for r, sp := range c.final {
		entries:
			for _, t := range c.runs[r][sp.lo:sp.hi] {
				for _, cc := range in.check {
					if component(t, in.varComps[cc.comp]) != j.row[cc.col] {
						continue entries
					}
				}
				for _, cc := range in.set {
					j.row[cc.col] = component(t, in.varComps[cc.comp])
				}
				if homes && j.s.home(j.row[j.s.anchor]) != j.node {
					continue
				}
				if err := j.emit(e + 1); err != nil || probe {
					return err
				}
			}
		}
		return nil
	}
	sp := c.final[0]
rows:
	for _, r := range c.rows[sp.lo:sp.hi] {
		for _, cc := range in.check {
			if r[cc.comp] != j.row[cc.col] {
				continue rows
			}
		}
		for _, cc := range in.set {
			j.row[cc.col] = r[cc.comp]
		}
		if homes && j.s.home(j.row[j.s.anchor]) != j.node {
			continue
		}
		if err := j.emit(e + 1); err != nil || probe {
			return err
		}
	}
	return nil
}

func (j *mergeJoin) poll() error {
	if j.ops-j.polled < cancelEvery {
		return nil
	}
	j.polled = j.ops
	return obs.Canceled(j.ctx, "join")
}
