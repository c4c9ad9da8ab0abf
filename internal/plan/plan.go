// Package plan defines the physical query plans of paper §II-D:
// labeled bushy trees whose leaves scan the bindings of triple
// patterns and whose inner nodes are k-way join operators (k ≥ 2)
// labeled with one of the three join algorithms — local (⋈_L),
// broadcast (⋈_B), repartition (⋈_R). Plan cost follows Eq. 3:
// the cost of a plan is the maximal child cost plus the operator cost,
// modeling concurrent subquery execution.
package plan

import (
	"fmt"
	"strings"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
)

// Algorithm identifies the operator implementing a plan node.
type Algorithm uint8

const (
	// Scan matches the bindings of a single triple pattern.
	Scan Algorithm = iota
	// LocalJoin joins co-partitioned inputs with no communication.
	LocalJoin
	// BroadcastJoin replicates the k−1 smaller inputs to every node
	// holding the largest input.
	BroadcastJoin
	// RepartitionJoin reshuffles every input on the shared join variable.
	RepartitionJoin
)

// String returns the paper's notation for the operator.
func (a Algorithm) String() string {
	switch a {
	case Scan:
		return "scan"
	case LocalJoin:
		return "⋈L"
	case BroadcastJoin:
		return "⋈B"
	default:
		return "⋈R"
	}
}

// Node is one operator of a bushy plan. A Node is immutable once
// built; Cost and Card are fixed at construction.
type Node struct {
	// Set is the subquery this node produces: the union of the triple
	// patterns of all descendant leaves.
	Set bitset.TPSet
	// Alg is the operator.
	Alg Algorithm
	// TP is the triple-pattern index for Scan nodes.
	TP int
	// JoinVar is the common join variable of a join node (the v_j of
	// the connected multi-division that produced it).
	JoinVar string
	// Anchor names, on a local join, a variable v whose combine(v, G_Q)
	// holds every pattern of Set: each match lies whole on the home of
	// v's binding, so a root local join emits it there only. "" when the
	// optimizer named none. Plan text does not carry it.
	Anchor string
	// Children are the k inputs of a join node (nil for scans).
	Children []*Node
	// Card is the estimated output cardinality.
	Card float64
	// OpCost is the cost of this operator alone (Eq. 4).
	OpCost float64
	// Cost is the cumulative plan cost (Eq. 3):
	// max over children of Cost + OpCost.
	Cost float64
}

// NewScan builds a leaf scanning triple pattern tp.
func NewScan(tp int, card float64, p cost.Params) *Node {
	c := p.Scan(card)
	return &Node{Set: bitset.Single(tp), Alg: Scan, TP: tp, Card: card, OpCost: c, Cost: c}
}

// NewJoin builds a k-way join node over the children using the given
// algorithm, joining on joinVar, producing card results. It panics if
// alg is Scan or fewer than two children are supplied — programming
// errors, not data errors.
func NewJoin(alg Algorithm, joinVar string, children []*Node, card float64, p cost.Params) *Node {
	if alg == Scan {
		panic("plan: NewJoin with Scan algorithm")
	}
	if len(children) < 2 {
		panic("plan: join needs at least two children")
	}
	var set bitset.TPSet
	for _, ch := range children {
		set = set.Union(ch.Set)
	}
	op, total := JoinCost(alg, children, card, p)
	return &Node{
		Set:      set,
		Alg:      alg,
		JoinVar:  joinVar,
		Children: children,
		Card:     card,
		OpCost:   op,
		Cost:     total,
	}
}

// JoinCost returns the operator cost (Eq. 4) and cumulative plan cost
// (Eq. 3) of the k-way join candidate (alg, children, card) without
// building the Node. NewJoin prices its node with it, so a Node later
// built from the same candidate carries bit-identical costs. The
// greedy optimizer uses it to discard losing candidates
// allocation-free.
func JoinCost(alg Algorithm, children []*Node, card float64, p cost.Params) (op, total float64) {
	var sumIn, maxIn, maxChild float64
	for _, ch := range children {
		sumIn += ch.Card
		if ch.Card > maxIn {
			maxIn = ch.Card
		}
		if ch.Cost > maxChild {
			maxChild = ch.Cost
		}
	}
	switch alg {
	case LocalJoin:
		op = p.LocalFromStats(sumIn, card)
	case BroadcastJoin:
		op = p.BroadcastFromStats(sumIn, maxIn, card)
	case RepartitionJoin:
		op = p.RepartitionFromStats(sumIn, card)
	default:
		panic("plan: JoinCost with Scan algorithm")
	}
	return op, maxChild + op
}

// Depth returns the number of operator levels (a scan has depth 1).
func (n *Node) Depth() int {
	if n.Alg == Scan {
		return 1
	}
	max := 0
	for _, ch := range n.Children {
		if d := ch.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Operators counts the join operators in the plan.
func (n *Node) Operators() int {
	if n.Alg == Scan {
		return 0
	}
	total := 1
	for _, ch := range n.Children {
		total += ch.Operators()
	}
	return total
}

// Validate checks the structural invariants of a plan: children's
// pattern sets are disjoint and union to the parent's, scans are
// singletons, join nodes have ≥ 2 children, and costs are consistent
// with Eq. 3. It is used by tests and returns the first violation.
func (n *Node) Validate() error {
	switch {
	case n.Alg == Scan:
		if len(n.Children) != 0 {
			return fmt.Errorf("plan: scan with children")
		}
		if n.Set != bitset.Single(n.TP) {
			return fmt.Errorf("plan: scan set %v does not match TP %d", n.Set, n.TP)
		}
		return nil
	case len(n.Children) < 2:
		return fmt.Errorf("plan: join %v with %d children", n.Set, len(n.Children))
	}
	var union bitset.TPSet
	maxChild := 0.0
	for _, ch := range n.Children {
		if union.Overlaps(ch.Set) {
			return fmt.Errorf("plan: overlapping children at %v", n.Set)
		}
		union = union.Union(ch.Set)
		if ch.Cost > maxChild {
			maxChild = ch.Cost
		}
		if err := ch.Validate(); err != nil {
			return err
		}
	}
	if union != n.Set {
		return fmt.Errorf("plan: children cover %v, node claims %v", union, n.Set)
	}
	if diff := n.Cost - (maxChild + n.OpCost); diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("plan: cost %v inconsistent with max-child %v + op %v", n.Cost, maxChild, n.OpCost)
	}
	return nil
}

// Format renders the plan as an indented ASCII tree in the style of
// the paper's Fig. 3.
func (n *Node) Format() string {
	var b strings.Builder
	var walk func(m *Node, indent string)
	walk = func(m *Node, indent string) {
		if m.Alg == Scan {
			fmt.Fprintf(&b, "%sscan tp%d (card=%.4g, cost=%.4g)\n", indent, m.TP+1, m.Card, m.Cost)
			return
		}
		fmt.Fprintf(&b, "%s%s on ?%s (card=%.4g, cost=%.4g)\n", indent, m.Alg, m.JoinVar, m.Card, m.Cost)
		for _, ch := range m.Children {
			walk(ch, indent+"  ")
		}
	}
	walk(n, "")
	return b.String()
}
