package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

func TestTraceMirrorsPlan(t *testing.T) {
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?a <knows> ?b . ?b <worksFor> ?o . ?o <inCity> ?c . }`)
	m := partition.HashSO
	placement, err := m.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, 0 /* TDCMD */)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("no trace attached")
	}
	// Same operator count and same root shape as the plan.
	if traceOps(got.Trace) != res.Plan.Operators()+res.Plan.Set.Len() {
		t.Errorf("trace has %d operators, plan has %d joins + %d scans",
			traceOps(got.Trace), res.Plan.Operators(), res.Plan.Set.Len())
	}
	if got.Trace.Alg != res.Plan.Alg || got.Trace.Set != res.Plan.Set {
		t.Errorf("trace root mismatch: %v vs %v", got.Trace.Alg, res.Plan.Alg)
	}
	// Estimated cardinalities carried over.
	var walk func(tr *TraceNode, p *plan.Node)
	walk = func(tr *TraceNode, p *plan.Node) {
		if tr.EstimatedCard != p.Card {
			t.Errorf("trace est %v != plan card %v at %v", tr.EstimatedCard, p.Card, p.Set)
		}
		for i := range tr.Children {
			walk(tr.Children[i], p.Children[i])
		}
	}
	walk(got.Trace, res.Plan)

	out := got.Trace.Format()
	for _, want := range []string{"scan tp", "rows=", "est", "moved="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace format missing %q:\n%s", want, out)
		}
	}
}

// traceOps counts the operators in a trace.
func traceOps(tr *TraceNode) int {
	n := 1
	for _, ch := range tr.Children {
		n += traceOps(ch)
	}
	return n
}

func TestTraceRowCountsAreExact(t *testing.T) {
	// With collected (exact) stats and a single scan, the trace's
	// actual row count matches the reference result size times the
	// replication factor or more; at minimum the root's OutputRows
	// must be ≥ the distinct result count.
	ds := socialDataset()
	q := sparql.MustParse(`SELECT * WHERE { ?p <worksFor> ?o . ?o <inCity> ?c . }`)
	m := partition.HashSO
	placement, _ := m.Partition(ds, 2)
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, 0)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.OutputRows < int64(len(got.Rows)) {
		t.Errorf("root produced %d rows but result has %d distinct",
			got.Trace.OutputRows, len(got.Rows))
	}
	if got.Trace.MaxNodeRows > got.Trace.OutputRows {
		t.Error("per-node maximum exceeds total")
	}
}

// TestTraceSaysHowLeafWasRead: a point read's star is merged — both
// leaves are intersected on ?f, neither is read — and so is the same big
// leaf left in place by a broadcast join, against the one gathered row,
// and the big leaf of a local join whose other leaf cannot be ordered
// and is read to drive. The trace says which: a merged leaf reports the
// postings of the key groups it matched, a read one its read; both keep
// the full read's size as OutputRows so the estimate still has
// something to be compared with, and the leaves' postings add up to the
// run's ScannedTriples.
func TestTraceSaysHowLeafWasRead(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Add("s0", "advisor", "f7")
	for i := 0; i < 300; i++ {
		ds.Add(fmt.Sprintf("f%d", i), "worksFor", fmt.Sprintf("d%d", i%9))
	}
	q := sparql.MustParse(`SELECT * WHERE { <s0> <advisor> ?f . ?f <worksFor> ?d . }`)
	m := partition.HashSO
	placement, err := m.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Hash-SO keeps up to two copies of a triple; the leaf's size is the
	// copies the placement holds, read or not.
	worksFor, _ := ds.Dict.Lookup("worksFor")
	var copies int64
	for _, ts := range placement.Triples {
		for _, tr := range ts {
			if tr.P == worksFor {
				copies++
			}
		}
	}
	e := New(ds.Dict, placement)
	res := optimizeFor(t, ds, q, m, 0)
	got, err := e.Execute(context.Background(), res.Plan, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Trace.Alg != plan.LocalJoin {
		t.Fatalf("want one row from a local join, got %d from %v", len(got.Rows), got.Trace.Alg)
	}
	small, big := got.Trace.Children[0], got.Trace.Children[1]
	// A node joins the advisor triple when it holds f7's worksFor triple
	// too: one posting of each leaf, and one joined row, per such node.
	if !small.Merged || small.Postings < 1 || small.Postings > small.OutputRows {
		t.Errorf("the selective leaf should be merged: %+v", small)
	}
	if !big.Merged || big.Postings != small.Postings || big.OutputRows != copies || got.Trace.OutputRows != small.Postings {
		t.Errorf("the big leaf should be merged, %d copies: %+v (join produced %d rows)", copies, big, got.Trace.OutputRows)
	}
	if sum := small.Postings + big.Postings; sum != got.Metrics.ScannedTriples {
		t.Errorf("leaves touched %d postings, metrics say %d", sum, got.Metrics.ScannedTriples)
	}
	out := got.Trace.Format()
	for _, want := range []string{
		fmt.Sprintf("scan tp1: merged, %d postings (range %d)", small.Postings, small.OutputRows),
		fmt.Sprintf("scan tp2: merged, %d postings (range %d)", big.Postings, copies),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace format lacks %q:\n%s", want, out)
		}
	}

	// A broadcast join ships the advisor leaf and leaves the big one in
	// place: every node merges the one gathered row with the big leaf's
	// range on ?f, and finds f7's worksFor triple where a copy of it is.
	bcast := plan.NewJoin(plan.BroadcastJoin, "f",
		[]*plan.Node{plan.NewScan(0, 1, cost.Default), plan.NewScan(1, 300, cost.Default)}, 1, cost.Default)
	got, err = e.Execute(context.Background(), bcast, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Fatalf("broadcast join: want one row, got %d", len(got.Rows))
	}
	small, big = got.Trace.Children[0], got.Trace.Children[1]
	if small.Merged || small.Postings != small.OutputRows || small.OutputRows < 1 {
		t.Errorf("the shipped leaf should be read in full: %+v", small)
	}
	if !big.Merged || big.Postings < 1 || big.Postings != got.Trace.OutputRows || big.OutputRows != copies {
		t.Errorf("the big leaf should be merged, %d copies: %+v (join produced %d rows)", copies, big, got.Trace.OutputRows)
	}
	if sum := small.Postings + big.Postings; sum != got.Metrics.ScannedTriples {
		t.Errorf("leaves touched %d postings, metrics say %d", sum, got.Metrics.ScannedTriples)
	}
	out = got.Trace.Format()
	for _, want := range []string{
		fmt.Sprintf("scan tp1: rows=%d postings=%d", small.OutputRows, small.Postings),
		fmt.Sprintf("scan tp2: merged, %d postings (range %d)", big.Postings, copies),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace format lacks %q:\n%s", want, out)
		}
	}

	// <s0> ?p ?f cannot be ordered on ?f (its range is sorted on ?p), so a
	// local join over it reads it and lets it drive: every node holding
	// the advisor triple looks ?f up in the big leaf's ranges.
	q = sparql.MustParse(`SELECT * WHERE { <s0> ?p ?f . ?f <worksFor> ?d . }`)
	local := plan.NewJoin(plan.LocalJoin, "f",
		[]*plan.Node{plan.NewScan(0, 1, cost.Default), plan.NewScan(1, 300, cost.Default)}, 1, cost.Default)
	got, err = e.Execute(context.Background(), local, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Fatalf("driven local join: want one row, got %d", len(got.Rows))
	}
	small, big = got.Trace.Children[0], got.Trace.Children[1]
	if small.Merged || small.Postings != small.OutputRows || small.OutputRows < 1 {
		t.Errorf("the unorderable leaf should be read in full: %+v", small)
	}
	if !big.Merged || big.Postings < 1 || big.Postings > small.OutputRows || big.OutputRows != copies {
		t.Errorf("the big leaf should be looked up once per advisor copy, %d copies: %+v", copies, big)
	}
	if sum := small.Postings + big.Postings; sum != got.Metrics.ScannedTriples {
		t.Errorf("leaves touched %d postings, metrics say %d", sum, got.Metrics.ScannedTriples)
	}
	out = got.Trace.Format()
	for _, want := range []string{
		fmt.Sprintf("scan tp1: rows=%d postings=%d", small.OutputRows, small.Postings),
		fmt.Sprintf("scan tp2: merged, %d postings (range %d)", big.Postings, copies),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace format lacks %q:\n%s", want, out)
		}
	}
}

// TestTraceOwnTimesAddUp: the operators of a plan run one after another,
// so their own times are disjoint slices of the execution and sum to no
// more than its wall time. A per-layer time budget relies on this. The
// run's Metrics add up the same way: the scans' postings, the joins'
// output rows and the rows and bytes the joins moved.
func TestTraceOwnTimesAddUp(t *testing.T) {
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	var ownTime func(tr *TraceNode) time.Duration
	var sum func(tr *TraceNode, m *Metrics)
	ownTime = func(tr *TraceNode) time.Duration {
		d := tr.Elapsed
		for _, c := range tr.Children {
			d += ownTime(c)
		}
		return d
	}
	sum = func(tr *TraceNode, m *Metrics) {
		if tr.Alg == plan.Scan {
			m.ScannedTriples += tr.Postings
		} else {
			m.JoinedRows += tr.OutputRows
		}
		m.TransferredRows += tr.TransferredRows
		m.TransferredBytes += tr.TransferredBytes
		for _, c := range tr.Children {
			sum(c, m)
		}
	}
	for _, name := range []string{"hash-so", "2f"} {
		m, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		placement, err := m.Partition(ds, 10)
		if err != nil {
			t.Fatal(err)
		}
		e := New(ds.Dict, placement)
		for _, qn := range lubm.QueryNames {
			q := lubm.Query(qn)
			p := optimizeFor(t, ds, q, m, opt.TDAuto).Plan
			start := time.Now()
			st, err := e.ExecuteStream(context.Background(), p, q, ExecEnv{})
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, qn, err)
			}
			st.Finish()
			if own := ownTime(st.Result().Trace); own > wall {
				t.Errorf("%s/%s: operators' own times add up to %v, more than the execution's %v", name, qn, own, wall)
			}
			var m Metrics
			sum(st.Result().Trace, &m)
			if m != st.Result().Metrics {
				t.Errorf("%s/%s: the trace adds up to %+v, the run's metrics are %+v", name, qn, m, st.Result().Metrics)
			}
		}
	}
}

// TestTraceBusyNodes holds every operator of the trace to the BusyNodes
// rule (see TraceNode.BusyNodes) over L1–L10 at LUBM-1 under the five
// methods, with and without an ingest delta, healthy and with node 1
// dead. A scan counts the nodes where some triple of the node's fragment
// or of the delta agrees with the pattern's constants, plus the dead
// node it failed over; a join the nodes where every input holds rows,
// the inputs' per-node rows following from the children's per-node
// outputs and the join's data movement.
func TestTraceBusyNodes(t *testing.T) {
	const nodes, dead = 4, 1
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	base := ds.Snapshot().Triples()
	// Triples of every predicate under subjects no base triple has, so
	// that a node may hold a pattern's rows in the delta alone.
	var delta []rdf.Triple
	for i := 0; i < len(base); i += 300 {
		tr := base[i]
		tr.S = ds.Dict.Intern(fmt.Sprintf("http://example.org/new%d", i))
		delta = append(delta, tr)
	}
	ctx := context.Background()
	saw := map[string]bool{}
	for _, name := range []string{"hash-so", "2f", "2fb", "un-1hop", "path-bmc"} {
		m, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		placement, err := m.Partition(ds, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, deltas := range [][]rdf.Triple{nil, delta} {
			e := New(ds.Dict, placement)
			e.SetFailover(&FailoverPolicy{})
			e.ApplyIngest(deltas, nil)
			for _, down := range []bool{false, true} {
				env := func() ExecEnv {
					fo := &failoverState{}
					if down {
						fo.markDead(dead, "scan")
					}
					return ExecEnv{Snap: e.Snapshot(), fo: fo}
				}
				for _, qn := range lubm.QueryNames {
					q := lubm.Query(qn)
					id := fmt.Sprintf("%s/delta=%v/down=%v/%s", name, deltas != nil, down, qn)
					p := optimizeFor(t, ds, q, m, opt.TDAuto).Plan
					res, err := e.ExecuteEnv(ctx, p, q, env())
					var ue *resilience.UnavailableError
					if errors.As(err, &ue) {
						continue // the dead node held a triple no other node has
					}
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if p.Alg == plan.Scan {
						t.Fatalf("%s: a root scan, which reads on its subjects' homes: the rule below does not size it", id)
					}
					var check func(p *plan.Node, tr *TraceNode)
					check = func(p *plan.Node, tr *TraceNode) {
						busy := make([]bool, nodes)
						if p.Alg == plan.Scan {
							bp := bindPattern(ds.Dict, q.Patterns[p.TP])
							for node := range busy {
								busy[node] = down && node == dead ||
									slices.ContainsFunc(placement.Triples[node], bp.agrees) || slices.ContainsFunc(deltas, bp.agrees)
							}
						} else {
							busy = joinBusy(t, e, p, q, env)
						}
						want := 0
						for _, b := range busy {
							if b {
								want++
							}
						}
						if tr.BusyNodes != want || tr.Nodes != nodes {
							t.Errorf("%s: %v over %v on %d/%d nodes, want %d/%d", id, p.Alg, p.Set, tr.BusyNodes, tr.Nodes, want, nodes)
						}
						saw[p.Alg.String()] = saw[p.Alg.String()] || want > 0 && want < nodes
						for i, c := range p.Children {
							check(c, tr.Children[i])
						}
					}
					check(p, res.Trace)
					saw["delta"] = saw["delta"] || deltas != nil
					saw["down"] = saw["down"] || down
				}
			}
		}
	}
	for _, what := range []string{plan.Scan.String(), plan.LocalJoin.String(), plan.BroadcastJoin.String(), plan.RepartitionJoin.String(), "delta", "down"} {
		if !saw[what] {
			t.Errorf("table degenerate: no case with %s (busy on some nodes but not all, for an operator)", what)
		}
	}
}

// agrees reports whether t agrees with every constant of bp.
func (bp *boundPattern) agrees(t rdf.Triple) bool {
	return !bp.unknown && (!bp.sConst || t.S == bp.s) && (!bp.pConst || t.P == bp.p) && (!bp.oConst || t.O == bp.o)
}

// joinBusy returns, per node, whether every input of join p holds rows
// there: a local join's inputs are its children's outputs on the node, a
// broadcast join's the largest child's output on the node and every
// other child whole, a repartition join's the rows of every child whose
// join variable hashes to the node.
func joinBusy(t *testing.T, e *Engine, p *plan.Node, q *sparql.Query, env func() ExecEnv) []bool {
	t.Helper()
	n := e.Nodes()
	kids := make([][]*Relation, len(p.Children))
	sizes := make([]int, len(p.Children))
	for i, c := range p.Children {
		out, _, _, err := e.eval(context.Background(), c, q, env(), false)
		if err != nil {
			t.Fatal(err)
		}
		kids[i] = out
		for _, rel := range out {
			sizes[i] += len(rel.Rows)
		}
	}
	largest := 0
	for i, size := range sizes {
		if size > sizes[largest] {
			largest = i
		}
	}
	busy := make([]bool, n)
	for node := range busy {
		busy[node] = true
		for i, out := range kids {
			var holds bool
			switch {
			case p.Alg == plan.LocalJoin || p.Alg == plan.BroadcastJoin && i == largest:
				holds = len(out[node].Rows) > 0
			case p.Alg == plan.BroadcastJoin:
				holds = sizes[i] > 0
			default:
				col := out[0].colIndex(p.JoinVar)
				for _, rel := range out {
					holds = holds || slices.ContainsFunc(rel.Rows, func(row []rdf.TermID) bool { return int(uint64(row[col])%uint64(n)) == node })
				}
			}
			busy[node] = busy[node] && holds
		}
	}
	return busy
}
