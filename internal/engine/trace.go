package engine

import (
	"fmt"
	"strings"
	"time"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// TraceNode is one operator's execution profile — the engine's
// EXPLAIN ANALYZE. It mirrors the plan tree.
type TraceNode struct {
	// Alg, Set and JoinVar identify the plan operator.
	Alg     plan.Algorithm
	Set     bitset.TPSet
	TP      int
	JoinVar string
	// OutputRows is the total rows the operator produced across nodes.
	OutputRows int64
	// MaxNodeRows is the largest per-node output (load skew).
	MaxNodeRows int64
	// BusyNodes is how many of the cluster's Nodes the operator had work
	// on: for a join, the nodes where every input held rows; for a
	// scan, the nodes it read or failed over, or — for a leaf its parent
	// join reads later — the nodes whose read is non-empty.
	BusyNodes, Nodes int
	// TransferredRows is this operator's own network contribution.
	TransferredRows int64
	// TransferredBytes is the wire volume of TransferredRows.
	TransferredBytes int64
	// Elapsed is the operator's own wall time, excluding children.
	// Operators run one after another, so the own-time intervals of a
	// trace are disjoint and their sum never exceeds the execution's
	// wall time.
	Elapsed time.Duration
	// EstimatedCard is the optimizer's cardinality estimate, kept for
	// estimate-vs-actual comparison.
	EstimatedCard float64
	// Aligned marks a scan that emitted each row directly on its
	// repartition destination (the triple group was migrated by the
	// adaptive advisor), so the parent's scatter for this child was
	// skipped entirely.
	Aligned bool
	// Postings is the index postings a scan touched: the lengths of the
	// candidate ranges it read or looked up.
	Postings int64
	// Merged marks a scan whose parent join, on at least one node,
	// intersected its sorted ranges with its siblings' on the join's
	// variables instead of reading the fragment (see sortedJoin);
	// Postings then counts the entries of the groups the merge matched.
	// OutputRows is still the size of the full read — what the estimate
	// predicted — not a count of rows produced.
	Merged bool
	// ScatterRows/ScatterBytes attribute a parent repartition join's
	// shuffle to the child that fed it — the rows of THIS operator's
	// output that landed on a different node (0 for an aligned child).
	// Set on the children of a repartition join only; the parent's
	// TransferredRows/Bytes remain the sum over its children.
	ScatterRows  int64
	ScatterBytes int64
	// Children mirror the plan's inputs, always in plan child order —
	// parallel child evaluation attaches traces by index, never in
	// completion order.
	Children []*TraceNode
}

// newTrace initializes a trace node from its plan operator.
func newTrace(p *plan.Node) *TraceNode {
	return &TraceNode{Alg: p.Alg, Set: p.Set, TP: p.TP, JoinVar: p.JoinVar, EstimatedCard: p.Card}
}

// record fills the output statistics from the per-node relations.
func (tr *TraceNode) record(out []*Relation) {
	for _, r := range out {
		tr.recordNode(len(r.Rows))
	}
}

// recordSizes is record for a scan, whose per-node row counts are known
// whether or not the rows were read.
func (tr *TraceNode) recordSizes(sizes []int) {
	for _, n := range sizes {
		tr.recordNode(n)
	}
}

func (tr *TraceNode) recordNode(rows int) {
	n := int64(rows)
	tr.OutputRows += n
	if n > tr.MaxNodeRows {
		tr.MaxNodeRows = n
	}
}

// Format renders the trace as an indented tree with actual-vs-
// estimated rows, per-operator time and network traffic.
func (tr *TraceNode) Format() string {
	var b strings.Builder
	var walk func(t *TraceNode, indent string)
	walk = func(t *TraceNode, indent string) {
		spread := fmt.Sprintf("on %d/%d nodes", t.BusyNodes, t.Nodes)
		switch t.Alg {
		case plan.Scan:
			aligned := ""
			if t.Aligned {
				aligned = " aligned"
			}
			read := fmt.Sprintf("rows=%d postings=%d", t.OutputRows, t.Postings)
			if t.Merged {
				read = fmt.Sprintf("merged, %d postings (range %d)", t.Postings, t.OutputRows)
			}
			fmt.Fprintf(&b, "%sscan tp%d: %s (est %.4g) max/node=%d %s time=%v%s\n",
				indent, t.TP+1, read, t.EstimatedCard, t.MaxNodeRows, spread, t.Elapsed.Round(time.Microsecond), aligned)
		default:
			fmt.Fprintf(&b, "%s%s on ?%s: rows=%d (est %.4g) max/node=%d %s moved=%d (%dB) time=%v\n",
				indent, t.Alg, t.JoinVar, t.OutputRows, t.EstimatedCard, t.MaxNodeRows, spread,
				t.TransferredRows, t.TransferredBytes, t.Elapsed.Round(time.Microsecond))
		}
		for _, ch := range t.Children {
			walk(ch, indent+"  ")
		}
	}
	walk(tr, "")
	return b.String()
}

// TotalTransferred sums the network traffic over the whole trace.
func (tr *TraceNode) TotalTransferred() int64 {
	total := tr.TransferredRows
	for _, ch := range tr.Children {
		total += ch.TotalTransferred()
	}
	return total
}

// Operators counts the operators in the trace.
func (tr *TraceNode) Operators() int {
	n := 1
	for _, ch := range tr.Children {
		n += ch.Operators()
	}
	return n
}

// ShuffleGroup is one alignable (predicate, position) triple group a
// completed run repartitioned on: a Scan child of a repartition join
// whose pattern has a constant predicate with the join variable at the
// subject or object. Rows/Bytes are the OBSERVED shuffle volume that
// child paid (zero for an already-aligned child) — the adaptive
// advisor's mining unit.
type ShuffleGroup struct {
	Pred    rdf.TermID
	Pos     partition.Pos
	TP      int
	Rows    int64
	Bytes   int64
	Aligned bool
}

// ShuffleGroups mines a completed run's trace for the alignable scan
// children of its repartition joins. The predicate resolution uses the
// engine's dictionary, so the returned group keys are directly
// comparable with partition.GroupKey. A run with no trace (or no
// repartition joins) yields nil.
func (e *Engine) ShuffleGroups(res *Result, q *sparql.Query) []ShuffleGroup {
	if res == nil || res.Trace == nil {
		return nil
	}
	var out []ShuffleGroup
	var walk func(t *TraceNode)
	walk = func(t *TraceNode) {
		if t.Alg == plan.RepartitionJoin {
			for _, ch := range t.Children {
				pred, pos, ok := e.alignGroup(q, ch.Alg, ch.TP, t.JoinVar)
				if !ok {
					continue
				}
				out = append(out, ShuffleGroup{
					Pred: pred, Pos: pos, TP: ch.TP,
					Rows: ch.ScatterRows, Bytes: ch.ScatterBytes,
					Aligned: ch.Aligned,
				})
			}
		}
		for _, ch := range t.Children {
			walk(ch)
		}
	}
	walk(res.Trace)
	return out
}

// AttachSpans mirrors the execution profile under parent as lifecycle
// spans — one "op:<name>" span per operator, in plan child order,
// annotated with estimated vs. actual cardinality and shuffle volume.
// A nil parent (tracing disabled) attaches nothing.
func (tr *TraceNode) AttachSpans(parent *obs.Span) {
	if parent == nil || tr == nil {
		return
	}
	s := &obs.Span{Name: "op:" + opName(tr.Alg), Dur: tr.Elapsed}
	if tr.Alg == plan.Scan {
		s.SetAttrInt("tp", int64(tr.TP+1))
		s.SetAttrInt("postings", tr.Postings)
		if tr.Merged {
			s.SetAttr("merged", "true")
		}
	} else {
		s.SetAttr("join_var", tr.JoinVar)
	}
	s.SetAttrFloat("est_rows", tr.EstimatedCard)
	s.SetAttrInt("rows", tr.OutputRows)
	s.SetAttrInt("max_node_rows", tr.MaxNodeRows)
	s.SetAttr("nodes", fmt.Sprintf("%d/%d", tr.BusyNodes, tr.Nodes))
	if tr.Alg == plan.BroadcastJoin || tr.Alg == plan.RepartitionJoin {
		s.SetAttrInt("shuffled_rows", tr.TransferredRows)
		s.SetAttrInt("shuffled_bytes", tr.TransferredBytes)
	}
	if tr.Aligned {
		s.SetAttr("aligned", "true")
	}
	parent.Attach(s)
	for _, ch := range tr.Children {
		ch.AttachSpans(s)
	}
}
