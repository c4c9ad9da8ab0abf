package engine

import (
	"context"
	"math"
	"slices"

	"sparqlopt/internal/obs"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
)

// starMerge is a local join over scan leaves answered the way RDF-3X
// answers a star: every leaf's candidates are taken as ranges sorted on
// the join variable — its base range and one per delta chunk — and the
// leaves are intersected on that variable by galloping seeks, leapfrog
// style, instead of being read into arenas, hashed and probed. For each
// key present in every leaf the join emits the cross product of the
// leaves' key groups, checking any other variable two leaves share for
// equality, in foldOrder's schema: the node's output is the multiset the
// hash fold over its reads returns.
//
// Postings are counted the way a probe counts them — the entries of the
// ranges the join takes rows from, not the ones a search steps over: a
// merge touches, per leaf, the entries of the key groups whose key
// occurs in every leaf's runs on the node.
type starMerge struct {
	inputs []mergeInput // in fold order
	schema []string
}

// mergeInput is one leaf as the merge walks it.
type mergeInput struct {
	leaf *scanLeaf
	p    perm
	comp int // where the join variable stands: compS or compO
	// delta is the leaf's range in every delta chunk holding candidates;
	// the chunks are on every node, so it is shared by all of them.
	delta [][]rdf.Triple
	// set lists the schema columns the leaf binds first, check the ones an
	// earlier leaf bound and the leaf's triple must agree with.
	set, check []colComp
}

// colComp maps a schema column to the triple component that binds it.
type colComp struct{ col, comp int }

// newStarMerge returns the merge for a local join on joinVar over leaves
// (folded in order, under schema; see foldOrder), or nil when an input is
// not a lazily opened leaf or its pattern cannot be ordered on joinVar
// (see orderedOn). The choice follows from structure alone.
func newStarMerge(leaves []*scanLeaf, order []int, schema []string, joinVar string) *starMerge {
	m := &starMerge{inputs: make([]mergeInput, len(order)), schema: schema}
	bound := make([]bool, len(schema))
	for d, i := range order {
		l := leaves[i]
		if l == nil {
			return nil
		}
		bp := &l.bp
		p, comp, ok := bp.orderedOn(slices.Index(bp.vars, joinVar))
		if !ok {
			return nil
		}
		in := mergeInput{leaf: l, p: p, comp: comp}
		for _, st := range l.snap.delta {
			if r := st.rangeIn(bp, p); len(r) > 0 {
				in.delta = append(in.delta, r)
			}
		}
		for j, v := range bp.vars {
			c := colComp{col: slices.Index(schema, v), comp: varComp(bp, j)}
			switch {
			case v == joinVar && d > 0:
				// Equal by construction: every leaf sits on the same key.
			case bound[c.col]:
				in.check = append(in.check, c)
			default:
				bound[c.col] = true
				in.set = append(in.set, c)
			}
		}
		m.inputs[d] = in
	}
	return m
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

// unread reports whether every input is still unread on node — no read
// failed over there — which is when the merge takes the node.
func (m *starMerge) unread(node int) bool {
	for _, in := range m.inputs {
		if in.leaf.rels[node] != nil {
			return false
		}
	}
	return true
}

// mergeCursor walks one input's sorted runs on one node.
type mergeCursor struct {
	in *mergeInput
	// runs holds the unvisited rest of each run, none of them empty.
	runs [][]rdf.Triple
	// group holds the current key's entries, one part per run.
	group    [][]rdf.Triple
	postings int64
}

// seek drops every entry keyed below k and returns the smallest key
// left; ok is false once the runs are exhausted.
func (c *mergeCursor) seek(k rdf.TermID) (head rdf.TermID, ok bool) {
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

// take moves the entries keyed k from the runs into group.
func (c *mergeCursor) take(k rdf.TermID) {
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

// join merges node's runs of every input, charging the output to g
// under site as it grows and polling ctx every cancelEvery seeks and
// rows. An input without candidates on the node ends it at once — on a
// point read, that is every node but the one or two holding the
// constant.
func (m *starMerge) join(ctx context.Context, g *resilience.Gauge, site string, node int) (*Relation, error) {
	hint := math.MaxInt
	for _, in := range m.inputs {
		in.leaf.merged.Store(true)
		hint = min(hint, in.leaf.size[node])
	}
	if hint == 0 {
		return &Relation{Vars: m.schema}, nil
	}
	j := mergeJoin{ctx: ctx, cursors: make([]mergeCursor, len(m.inputs)),
		out: newRelation(m.schema, hint), row: make([]rdf.TermID, len(m.schema))}
	for d := range m.inputs {
		in := &m.inputs[d]
		c := &j.cursors[d]
		c.in = in
		c.runs = make([][]rdf.Triple, 0, 1+len(in.delta))
		if r := in.leaf.snap.stores[node].rangeIn(&in.leaf.bp, in.p); len(r) > 0 {
			c.runs = append(c.runs, r)
		}
		c.runs = append(c.runs, in.delta...)
	}
	err := j.run(g, site)
	for d := range j.cursors {
		j.cursors[d].in.leaf.scanned.Add(j.cursors[d].postings)
	}
	if err != nil {
		return nil, err
	}
	return j.out, nil
}

// mergeJoin is one node's merge in progress.
type mergeJoin struct {
	ctx         context.Context
	cursors     []mergeCursor // in fold order
	out         *Relation
	row         []rdf.TermID // the row being built, in the schema's columns
	ops, polled int
}

// run is the leapfrog: seek every cursor to the largest key any of them
// is on until they all agree, then emit that key's rows and step past it.
func (j *mergeJoin) run(g *resilience.Gauge, site string) error {
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

// emit appends the cross product of the key groups of cursors d and
// beyond, extending the row the earlier cursors bound.
func (j *mergeJoin) emit(d int) error {
	if d == len(j.cursors) {
		j.out.appendCopy(j.row)
		j.ops++
		return j.poll()
	}
	in := j.cursors[d].in
	for _, part := range j.cursors[d].group {
	entries:
		for _, t := range part {
			for _, c := range in.check {
				if component(t, c.comp) != j.row[c.col] {
					continue entries
				}
			}
			for _, c := range in.set {
				j.row[c.col] = component(t, c.comp)
			}
			if err := j.emit(d + 1); err != nil {
				return err
			}
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
