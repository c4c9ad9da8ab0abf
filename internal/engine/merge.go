package engine

import (
	"context"
	"math"
	"slices"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
)

// sortedJoin is a join operator's per-node join over inputs sorted on its
// join variable, answered the way RDF-3X answers a join: the inputs are
// intersected on that variable by galloping seeks, leapfrog style, and
// nothing is hashed. An input is walked as one of two kinds of sorted
// run. A scan leaf that can be ordered on the variable (see orderedOn)
// is never read: its runs are its candidate ranges, its base range and
// one per delta chunk. A relation — a broadcast's gathered input, a
// scatter bucket, a merge's output — is a run when it is sorted on the
// variable (see Relation.sortedOn).
//
// At most one input per node may be out of key order: a relation not
// sorted on the variable, or a leaf that had to be read (a pattern no
// permutation orders on it, a read that failed over). That input drives:
// each of its rows looks its key up in the other, sorted inputs. Any
// further unordered input is sorted on the node first.
//
// For each key present in every input the join emits the cross product
// of the inputs' key groups, checking any other variable two inputs share
// for equality, in foldOrder's schema: the node's output is the multiset
// the hash fold over the same inputs returns. Without a driver it comes
// out sorted on the join variable.
//
// A leaf's postings are counted the way a probe counts them — the entries
// of the ranges the join takes rows from, not the ones a search steps
// over: a leapfrog touches, per leaf, the entries of the key groups whose
// key occurs in every input on the node.
type sortedJoin struct {
	inputs []joinInput // in fold order
	schema []string
	key    string
}

// joinInput is one input as the join walks it.
type joinInput struct {
	idx  int       // the input's index in the operator's inputs
	leaf *scanLeaf // the input's scan leaf, nil for a relation
	// ranges marks a leaf walked through its sorted ranges: permutation p
	// orders them on triple component comp (compS or compO).
	ranges bool
	p      perm
	comp   int
	// delta is the leaf's range in every delta chunk holding candidates;
	// the chunks are on every node, so it is shared by all of them.
	delta [][]rdf.Triple
	// col is the join variable's column in the input's rows.
	col int
	// set lists the schema columns the input binds first, check the ones
	// an earlier input bound and the input's rows must agree with, each
	// with the input's column that binds it; comps maps those columns to
	// triple components when the input's ranges are walked.
	set, check []colComp
	comps      [3]int
}

// colComp maps a schema column to the input column that binds it.
type colComp struct{ col, comp int }

// newSortedJoin returns the join on key over inputs with the given
// variables (folded in order, under schema; see foldOrder), where
// leaves[i] is input i's lazily opened scan leaf or nil. It returns nil
// when an input lacks key, or with leavesOnly when an input is not a leaf
// orderable on key — a local join merges only then. The choice follows
// from structure alone.
func newSortedJoin(vars [][]string, leaves []*scanLeaf, order []int, schema []string, key string, leavesOnly bool) *sortedJoin {
	s := &sortedJoin{inputs: make([]joinInput, len(order)), schema: schema, key: key}
	bound := make([]bool, len(schema))
	for d, i := range order {
		in := joinInput{idx: i, leaf: leaves[i], col: slices.Index(vars[i], key)}
		if in.col < 0 {
			return nil
		}
		if l := in.leaf; l != nil {
			in.p, in.comp, in.ranges = l.bp.orderedOn(in.col)
		}
		if leavesOnly && !in.ranges {
			return nil
		}
		if in.ranges {
			for _, st := range in.leaf.snap.delta {
				if r := st.rangeIn(&in.leaf.bp, in.p); len(r) > 0 {
					in.delta = append(in.delta, r)
				}
			}
			for j := range vars[i] {
				in.comps[j] = varComp(&in.leaf.bp, j)
			}
		}
		for j, v := range vars[i] {
			c := colComp{col: slices.Index(schema, v), comp: j}
			switch {
			case v == key && d > 0:
				// Equal by construction: every input sits on the same key.
			case bound[c.col]:
				in.check = append(in.check, c)
			default:
				bound[c.col] = true
				in.set = append(in.set, c)
			}
		}
		s.inputs[d] = in
	}
	return s
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

// unread reports whether every leaf is still unread on node — no read
// failed over there — which is when a local join merges the node.
func (s *sortedJoin) unread(node int) bool {
	for _, in := range s.inputs {
		if in.leaf.rels[node] != nil {
			return false
		}
	}
	return true
}

// mergeCursor walks one input's sorted runs on one node: a leaf's triple
// ranges, or a relation's rows.
type mergeCursor struct {
	in *joinInput
	// runs holds the unvisited rest of each triple range, none of them
	// empty; group the current key's entries, one part per range.
	runs, group [][]rdf.Triple
	// rows is the unvisited rest of a relation's rows and keys their join
	// column, contiguous so that a search reads no row; rowGroup is the
	// current key's rows.
	rows, rowGroup [][]rdf.TermID
	keys           []rdf.TermID
	ranges         bool
	postings       int64
}

// seek drops every entry keyed below k and returns the smallest key
// left; ok is false once the input is exhausted.
func (c *mergeCursor) seek(k rdf.TermID) (head rdf.TermID, ok bool) {
	if !c.ranges {
		if k > 0 {
			n := firstKeyAbove(c.keys, k-1)
			c.rows, c.keys = c.rows[n:], c.keys[n:]
		}
		if len(c.keys) == 0 {
			return 0, false
		}
		return c.keys[0], true
	}
	live := c.runs[:0]
	for _, r := range c.runs {
		if k > 0 {
			r = r[firstAbove(r, c.in.comp, k-1):]
		}
		if len(r) == 0 {
			continue
		}
		live = append(live, r)
		if h := component(r[0], c.in.comp); !ok || h < head {
			head, ok = h, true
		}
	}
	c.runs = live
	return head, ok
}

// take moves the entries keyed k from the runs into the group.
func (c *mergeCursor) take(k rdf.TermID) {
	if !c.ranges {
		n := firstKeyAbove(c.keys, k)
		c.rowGroup, c.rows, c.keys = c.rows[:n], c.rows[n:], c.keys[n:]
		return
	}
	c.group = c.group[:0]
	live := c.runs[:0]
	for _, r := range c.runs {
		n := firstAbove(r, c.in.comp, k)
		if n > 0 {
			c.group = append(c.group, r[:n])
			c.postings += int64(n)
		}
		if n < len(r) {
			live = append(live, r[n:])
		}
	}
	c.runs = live
}

// lookup sets the group to the entries keyed k, searching the whole of
// every run — a driver's keys come in no order — and reports whether
// there are any.
func (c *mergeCursor) lookup(k rdf.TermID) bool {
	if !c.ranges {
		lo := lowerBound(c.keys, k)
		hi := lo
		for hi < len(c.keys) && c.keys[hi] == k {
			hi++
		}
		c.rowGroup = c.rows[lo:hi]
		return hi > lo
	}
	c.group = c.group[:0]
	for _, r := range c.runs {
		if k > 0 {
			r = r[firstAbove(r, c.in.comp, k-1):]
		}
		if n := firstAbove(r, c.in.comp, k); n > 0 {
			c.group = append(c.group, r[:n])
			c.postings += int64(n)
		}
	}
	return len(c.group) > 0
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
	// Every input's size on the node is known before anything is read.
	hint := math.MaxInt
	for _, in := range s.inputs {
		if rel := rels[in.idx]; rel != nil {
			hint = min(hint, len(rel.Rows))
			continue
		}
		if in.ranges {
			in.leaf.merged.Store(true)
		}
		hint = min(hint, in.leaf.size[node])
	}
	if hint == 0 {
		return &Relation{Vars: s.schema, sortedOn: s.key}, nil
	}
	j := mergeJoin{ctx: ctx, cursors: make([]mergeCursor, len(s.inputs)), row: make([]rdf.TermID, len(s.schema))}
	driver := -1
	for d := range s.inputs {
		in := &s.inputs[d]
		c := &j.cursors[d]
		c.in = in
		rel := rels[in.idx]
		if in.ranges && rel == nil {
			c.ranges = true
			c.runs = make([][]rdf.Triple, 0, 1+len(in.delta))
			if r := in.leaf.snap.stores[node].rangeIn(&in.leaf.bp, in.p); len(r) > 0 {
				c.runs = append(c.runs, r)
			}
			c.runs = append(c.runs, in.delta...)
			continue
		}
		if rel == nil {
			var err error
			if rel, err = in.leaf.read(node); err != nil {
				return nil, err
			}
		}
		c.rows = rel.Rows
		if rel.sortedOn == s.key {
			if c.keys = rel.keys; c.keys == nil {
				c.keys = column(c.rows, in.col)
			}
			continue
		}
		// Out of key order: the largest such input drives, the others are
		// sorted here.
		switch {
		case driver < 0:
			driver = d
		case len(c.rows) > len(j.cursors[driver].rows):
			prev := &j.cursors[driver]
			prev.rows, prev.keys = keyOrder(prev.rows, prev.in.col)
			driver = d
		default:
			c.rows, c.keys = keyOrder(c.rows, in.col)
		}
	}
	j.out = newRelation(s.schema, hint)
	var err error
	if driver < 0 {
		j.out.sortedOn = s.key
		err = j.leapfrog(g, site)
	} else {
		err = j.drive(g, site, driver)
	}
	for d := range j.cursors {
		if c := &j.cursors[d]; c.ranges {
			c.in.leaf.scanned.Add(c.postings)
		}
	}
	if err != nil {
		return nil, err
	}
	return j.out, nil
}

// column returns column col of rows.
func column(rows [][]rdf.TermID, col int) []rdf.TermID {
	out := make([]rdf.TermID, len(rows))
	for i, row := range rows {
		out[i] = row[col]
	}
	return out
}

// mergeJoin is one node's join in progress.
type mergeJoin struct {
	ctx         context.Context
	cursors     []mergeCursor // in fold order
	out         *Relation
	row         []rdf.TermID // the row being built, in the schema's columns
	ops, polled int
}

// leapfrog seeks every cursor to the largest key any of them is on until
// they all agree, then emits that key's rows and steps past it.
func (j *mergeJoin) leapfrog(g *resilience.Gauge, site string) error {
	key := rdf.TermID(0)
	for {
		match := true
		for d := range j.cursors {
			h, ok := j.cursors[d].seek(key)
			if !ok {
				return nil
			}
			if h != key {
				key, match = h, false
			}
		}
		j.ops += len(j.cursors)
		if err := j.poll(); err != nil {
			return err
		}
		if !match {
			continue
		}
		for d := range j.cursors {
			j.cursors[d].take(key)
		}
		if err := j.emit(0); err != nil {
			return err
		}
		if err := j.out.chargeTo(g, site); err != nil {
			return err
		}
		if key == math.MaxUint32 {
			return nil
		}
		key++
	}
}

// drive walks the driver's rows in their own order, looking each row's
// key up in every other input and emitting the row's matches.
func (j *mergeJoin) drive(g *resilience.Gauge, site string, driver int) error {
	drv := &j.cursors[driver]
	rows, col := drv.rows, drv.in.col
rows:
	for i, row := range rows {
		j.ops += len(j.cursors)
		if err := j.poll(); err != nil {
			return err
		}
		k := row[col]
		for d := range j.cursors {
			if d != driver && !j.cursors[d].lookup(k) {
				continue rows
			}
		}
		drv.rowGroup = rows[i : i+1]
		if err := j.emit(0); err != nil {
			return err
		}
		if err := j.out.chargeTo(g, site); err != nil {
			return err
		}
	}
	return nil
}

// emit appends the cross product of the key groups of cursors d and
// beyond, extending the row the earlier cursors bound.
func (j *mergeJoin) emit(d int) error {
	if d == len(j.cursors) {
		j.out.appendCopy(j.row)
		j.ops++
		return j.poll()
	}
	c := &j.cursors[d]
	in := c.in
	for _, part := range c.group {
	entries:
		for _, t := range part {
			for _, cc := range in.check {
				if component(t, in.comps[cc.comp]) != j.row[cc.col] {
					continue entries
				}
			}
			for _, cc := range in.set {
				j.row[cc.col] = component(t, in.comps[cc.comp])
			}
			if err := j.emit(d + 1); err != nil {
				return err
			}
		}
	}
rows:
	for _, r := range c.rowGroup {
		for _, cc := range in.check {
			if r[cc.comp] != j.row[cc.col] {
				continue rows
			}
		}
		for _, cc := range in.set {
			j.row[cc.col] = r[cc.comp]
		}
		if err := j.emit(d + 1); err != nil {
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
