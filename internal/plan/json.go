package plan

import (
	"encoding/json"
	"fmt"

	"sparqlopt/internal/bitset"
)

// jsonNode is the serialized form of a plan operator.
type jsonNode struct {
	Alg      string      `json:"alg"`
	TP       *int        `json:"tp,omitempty"`
	JoinVar  string      `json:"joinVar,omitempty"`
	Card     float64     `json:"card"`
	OpCost   float64     `json:"opCost"`
	Cost     float64     `json:"cost"`
	Children []*jsonNode `json:"children,omitempty"`
}

var algNames = map[Algorithm]string{
	Scan:            "scan",
	LocalJoin:       "local",
	BroadcastJoin:   "broadcast",
	RepartitionJoin: "repartition",
}

// MarshalJSON serializes the plan tree. The pattern-set bitmap is
// derivable from the leaves and is not stored.
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSON(n))
}

func toJSON(n *Node) *jsonNode {
	j := &jsonNode{
		Alg:     algNames[n.Alg],
		JoinVar: n.JoinVar,
		Card:    n.Card,
		OpCost:  n.OpCost,
		Cost:    n.Cost,
	}
	if n.Alg == Scan {
		tp := n.TP
		j.TP = &tp
	}
	for _, ch := range n.Children {
		j.Children = append(j.Children, toJSON(ch))
	}
	return j
}

// UnmarshalJSON reconstructs a plan tree, recomputing the pattern sets
// from the leaves and validating the structure.
func (n *Node) UnmarshalJSON(data []byte) error {
	var j jsonNode
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	rebuilt, err := fromJSON(&j)
	if err != nil {
		return err
	}
	*n = *rebuilt
	return n.Validate()
}

func fromJSON(j *jsonNode) (*Node, error) {
	var alg Algorithm
	found := false
	for a, name := range algNames {
		if name == j.Alg {
			alg, found = a, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("plan: unknown algorithm %q", j.Alg)
	}
	n := &Node{Alg: alg, JoinVar: j.JoinVar, Card: j.Card, OpCost: j.OpCost, Cost: j.Cost}
	if alg == Scan {
		if j.TP == nil {
			return nil, fmt.Errorf("plan: scan without tp")
		}
		if *j.TP < 0 || *j.TP >= bitset.MaxPatterns {
			return nil, fmt.Errorf("plan: tp %d out of range", *j.TP)
		}
		n.TP = *j.TP
		n.Set = bitset.Single(n.TP)
		if len(j.Children) != 0 {
			return nil, fmt.Errorf("plan: scan with children")
		}
		return n, nil
	}
	for _, cj := range j.Children {
		ch, err := fromJSON(cj)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, ch)
		n.Set = n.Set.Union(ch.Set)
	}
	return n, nil
}
