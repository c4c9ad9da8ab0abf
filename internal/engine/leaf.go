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

// scanLeaf is one Scan operator's fragment reads, one per node. Opening
// the scan gates every node and takes the size of its read from the
// candidate ranges' lengths, delta included; only a down node's read, a
// failover read, is performed then. A healthy node's read is its step:
// the stream performs it at the root, eval below it — unless the scan is
// a Scan child of a local or broadcast join, which eval hands to its
// parent: no row is then copied until the parent's join on that node
// asks for the relation (read), and it never asks when the leaf's
// permutation orders it on the join's variables: the join then
// intersects the leaf's sorted ranges with its siblings' (merge; see
// sortedJoin).
type scanLeaf struct {
	snap  *Snap
	bp    boundPattern
	gauge *resilience.Gauge
	tr    *TraceNode
	// rels[node] is the node's fragment read; nil while not performed.
	// Each node's join touches only its own element.
	rels []*Relation
	// size[node] is the row count of the node's read, known before it is
	// performed; a bound until the read when the pattern repeats a
	// variable or the read is a root scan's (see nodeKeep).
	size []int
	// busy[node] reports whether the node's read, as sized at open, is
	// non-empty or failed over.
	busy []bool
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
// reads. Every node is gated and sized before any read starts, so a
// failover read checks coverage against every death this scan
// discovered, whatever the schedule; the failover reads are spread over
// goroutines (see fanOut).
func (e *Engine) scan(ctx context.Context, p *plan.Node, q *sparql.Query, env ExecEnv, tr *TraceNode, root *rootOut) (*operator, error) {
	snap := env.Snap
	n := len(snap.stores)
	l := &scanLeaf{
		snap:  snap,
		bp:    bindPattern(e.dict, q.Patterns[p.TP]),
		gauge: env.Gauge,
		tr:    tr,
		rels:  make([]*Relation, n),
		size:  make([]int, n),
		busy:  make([]bool, n),
		keep:  keepAll,
	}
	bp := &l.bp
	only := -1 // the one node that reads, -1 when every node does
	switch {
	case root != nil && snap.home != nil && bp.sConst:
		only = snap.home(bp.s)
	case root != nil && snap.home != nil:
		l.keep = nodeKeep{col: bp.sVar, nodeOf: snap.home}
	}
	if root != nil {
		root.scanned(bp, snap.home != nil)
	}
	deltaLen := 0
	for _, st := range snap.delta {
		deltaLen += len(st.candidates(bp))
	}
	var down []bool // nil while every node is up
	for node := 0; node < n; node++ {
		if only >= 0 && node != only {
			continue
		}
		d, err := e.nodeGate(node, "scan", env)
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
		l.busy[node] = d || l.size[node] > 0
	}
	if down != nil {
		dead := env.fo.deadNodes()
		err := e.fanOut(down, func(node int) error {
			if !down[node] {
				return nil
			}
			missing, err := l.readAt(node, dead)
			if missing > 0 {
				// Any hole fails fast, typed: never a silent partial result.
				return e.unavailable(env, "scan", missing)
			}
			env.fo.recordFailover()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return &operator{tr: tr, work: l, vars: bp.vars, busy: l.busy}, nil
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

// read returns node's fragment read, performing it now if it has not
// been.
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

// step performs node's read for its caller — eval's fan-out or the
// stream — which owns the relation from then on: the leaf keeps no
// reference to it.
func (l *scanLeaf) step(_ context.Context, node int) (*Relation, error) {
	rel, err := l.read(node)
	l.rels[node] = nil
	return rel, err
}

// settle closes the leaf's accounting once nothing will read or merge
// it any more: the postings touched and how the leaf was used land in
// its trace.
func (l *scanLeaf) settle() {
	l.tr.Postings = l.scanned.Load()
	l.tr.Merged = l.merged.Load()
}
