package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
)

// scanLeaf is one Scan operator's fragment reads, one per node. A scan
// the engine needs in full — a child of a repartition join, any node's
// read that must fail over — reads every fragment when it is opened. A
// Scan child of a local or broadcast join is opened lazily instead:
// every node is gated and the exact size of its read is taken from the
// candidate ranges' lengths, but no row is copied until the parent's
// join on that node asks for the relation (read) — and it never asks
// when the leaf's permutation orders it on the join's variables: the
// join then intersects the leaf's sorted ranges with its siblings'
// (merge; see sortedJoin). A root scan is opened lazily too, and the
// stream reads one node at a time (step).
type scanLeaf struct {
	snap  *Snap
	bp    boundPattern
	gauge *resilience.Gauge
	tr    *TraceNode
	// rels[node] is the node's fragment read; nil while not performed.
	// Each node's join touches only its own element.
	rels []*Relation
	// size[node] is the row count of the node's read, known before it is
	// performed; a root scan's is a bound until the read.
	size []int
	// keep filters every read of a root scan (see nodeKeep).
	keep nodeKeep

	// The delta is matched at most once per operator, by whichever read
	// comes first, and its rows are shared by every node's relation.
	deltaOnce sync.Once
	deltaRows [][]rdf.TermID
	deltaErr  error

	// scanned counts the postings touched by reads and merges alike.
	scanned atomic.Int64
	merged  atomic.Bool
}

// scan opens the Scan plan node p: one fragment read per node (see
// Snap.read) plus the broadcast delta, matched once and surfaced on
// every node. A root scan under a placement with homes emits each row
// only on its subject's home, which holds every triple of that subject,
// delta ones included; a constant subject's home is the only node that
// reads. With lazy set, healthy nodes' reads are sized but left to the
// parent join or, at the root, to the stream (see scanLeaf); a child
// pattern that repeats a variable filters its candidates, so its ranges
// are not its sizes and it is read at once.
// Every node is gated and sized before any read starts; only the reads
// whose range holds candidates (or that fail over) are spread over
// goroutines (see fanOut), and the trace records how many those were.
func (e *Engine) scan(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, tr *TraceNode, lazy, root bool) (*scanLeaf, error) {
	snap := env.Snap
	n := len(snap.stores)
	l := &scanLeaf{
		snap:  snap,
		bp:    bindPattern(e.dict, q.Patterns[p.TP]),
		gauge: env.Gauge,
		tr:    tr,
		rels:  make([]*Relation, n),
		size:  make([]int, n),
		keep:  keepAll,
	}
	bp := &l.bp
	only := -1 // the one node that reads, -1 when every node does
	switch {
	case root && snap.home != nil && bp.sConst:
		only = snap.home(bp.s)
	case root && snap.home != nil:
		l.keep = nodeKeep{col: bp.sVar, nodeOf: snap.home}
	}
	lazy = lazy && (root || !bp.repeated)
	deltaLen := 0
	if lazy {
		for _, st := range snap.delta {
			deltaLen += len(st.candidates(bp))
		}
	}
	// Gate every node before any read, sizing it on the way: its
	// candidate range, and for a lazy leaf the delta too, which makes the
	// size exact. A failover read then checks coverage against every
	// death this scan discovered, whatever the schedule.
	var down []bool // nil while every node is up
	for node := 0; node < n; node++ {
		if only >= 0 && node != only {
			continue
		}
		d, err := e.nodeGate(ctx, node, "scan", env)
		if err != nil {
			return nil, err
		}
		if d {
			if down == nil {
				down = make([]bool, n)
			}
			down[node] = true
		}
		l.size[node] = len(snap.stores[node].candidates(bp)) + deltaLen
	}
	var dead []int
	if down != nil {
		dead = env.fo.deadNodes()
	}
	isDown := func(node int) bool { return down != nil && down[node] }
	busy := func(node int) bool { return isDown(node) || !lazy && l.size[node] > 0 }
	busyNodes, err := e.fanOut(n, busy, func(node int) error {
		switch {
		case only >= 0 && node != only:
			l.rels[node] = &Relation{Vars: bp.vars}
			return nil
		case lazy && !isDown(node):
			return nil
		}
		var deadSet []int
		if isDown(node) {
			deadSet = dead
		}
		missing, err := l.readAt(node, deadSet)
		if missing > 0 {
			// Any hole fails fast, typed: never a silent partial result.
			return e.unavailable(env, "scan", missing)
		}
		if isDown(node) {
			env.fo.recordFailover()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if lazy {
		busyNodes = 0
		for _, size := range l.size {
			if size > 0 {
				busyNodes++
			}
		}
	}
	tr.BusyNodes, tr.Nodes = busyNodes, n
	return l, nil
}

// readAt performs node's fragment read and surfaces the delta's rows on
// it. A failover read that finds kept triples without a live copy
// reports their count and leaves the node unread.
func (l *scanLeaf) readAt(node int, dead []int) (missing int, err error) {
	rel, count, missing := l.snap.read(node, &l.bp, l.keep, dead)
	if missing > 0 {
		return missing, nil
	}
	l.deltaOnce.Do(func() {
		var scanned int64
		l.deltaRows, scanned, l.deltaErr = l.snap.readDelta(&l.bp, l.gauge)
		l.scanned.Add(scanned)
	})
	if l.deltaErr != nil {
		return 0, l.deltaErr
	}
	if l.keep.col < 0 {
		rel.Rows = append(rel.Rows, l.deltaRows...)
	} else {
		// Ingested triples are replicated to every node via the delta,
		// so the filter keeps each of them exactly on its node, and a home
		// read emits each once.
		for _, row := range l.deltaRows {
			if l.keep.keeps(row, node) {
				rel.Rows = append(rel.Rows, row)
			}
		}
	}
	l.rels[node] = rel
	l.size[node] = len(rel.Rows)
	l.scanned.Add(count)
	return 0, rel.chargeTo(l.gauge, "scan")
}

// read returns node's fragment read, performing it now if the leaf was
// opened lazily.
func (l *scanLeaf) read(node int) (*Relation, error) {
	switch {
	case l.rels[node] != nil:
	case l.size[node] == 0:
		// Nothing to read, and most nodes of a point read are here.
		l.rels[node] = &Relation{Vars: l.bp.vars}
	default:
		if _, err := l.readAt(node, nil); err != nil {
			return nil, err
		}
	}
	return l.rels[node], nil
}

// step performs node's read for the stream, which owns the relation
// from then on: the leaf keeps no reference to it.
func (l *scanLeaf) step(_ context.Context, node int) (*Relation, error) {
	rel, err := l.read(node)
	l.rels[node] = nil
	return rel, err
}

// readAll performs every read still outstanding, for a parent that
// needs the leaf as a relation on every node after all.
func (l *scanLeaf) readAll(e *Engine) error {
	busy := func(node int) bool { return l.rels[node] == nil && l.size[node] > 0 }
	_, err := e.fanOut(len(l.rels), busy, func(node int) error {
		_, err := l.read(node)
		return err
	})
	return err
}

// settle closes the leaf's accounting once nothing will read or merge
// it any more: the postings touched and how the leaf was used land in
// its trace.
func (l *scanLeaf) settle() {
	l.tr.Postings = l.scanned.Load()
	l.tr.Merged = l.merged.Load()
}
