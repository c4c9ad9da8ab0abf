package engine

import (
	"fmt"
	"strings"
	"time"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/obs"
	"sparqlopt/internal/plan"
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
	// on, as its open sized them: for a join, the nodes where every input
	// held rows; for a scan, the nodes whose read, delta included, is
	// non-empty as sized at open (the candidate ranges' lengths, a bound
	// where the pattern repeats a variable or a root scan keeps rows on
	// their homes only), plus the down nodes it failed over.
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
			read := fmt.Sprintf("rows=%d postings=%d", t.OutputRows, t.Postings)
			if t.Merged {
				read = fmt.Sprintf("merged, %d postings (range %d)", t.Postings, t.OutputRows)
			}
			fmt.Fprintf(&b, "%sscan tp%d: %s (est %.4g) max/node=%d %s time=%v\n",
				indent, t.TP+1, read, t.EstimatedCard, t.MaxNodeRows, spread, t.Elapsed.Round(time.Microsecond))
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

// addTo adds what the operators of the trace did to m: the postings
// its scans touched, the rows its joins produced and the rows and
// bytes its joins moved.
func (tr *TraceNode) addTo(m *Metrics) {
	if tr.Alg == plan.Scan {
		m.ScannedTriples += tr.Postings
	} else {
		m.JoinedRows += tr.OutputRows
	}
	m.TransferredRows += tr.TransferredRows
	m.TransferredBytes += tr.TransferredBytes
	for _, ch := range tr.Children {
		ch.addTo(m)
	}
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
	parent.Attach(s)
	for _, ch := range tr.Children {
		ch.AttachSpans(s)
	}
}
