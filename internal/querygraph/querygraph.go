// Package querygraph builds the two graph views of a SPARQL query used
// by the optimizer:
//
//   - the query graph G_Q = (V_Q, E_Q) of paper §II-A, whose vertices
//     are the subject/object terms and whose labeled edges are the
//     triple patterns — used by the generic partitioning model to
//     derive maximal local queries; and
//   - the bipartite join graph J(Q) = (V_T, V_J, E_J) of Definition 1,
//     whose vertex classes are triple patterns and shared variables —
//     used by plan enumeration.
//
// It also classifies queries as star, chain, cycle, tree or dense
// (§II-B, Fig. 2) and provides the connectivity and component
// primitives Algorithms 2 and 3 rely on.
package querygraph

import (
	"errors"
	"fmt"
	"math/bits"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/sparql"
)

// ErrUnsupported matches (errors.Is) every query the optimizer cannot
// plan: one with more than bitset.MaxPatterns triple patterns, or one
// whose join graph is disconnected (no Cartesian-product-free plan
// exists). It is the client's query that is at fault, not the system.
var ErrUnsupported = errors.New("unsupported query")

// Class is the structural class of a query's join graph (§II-B).
type Class uint8

const (
	// Star queries share a single join variable among all patterns.
	Star Class = iota
	// Chain queries have a path-shaped join graph.
	Chain
	// Cycle queries have a single-cycle join graph.
	Cycle
	// Tree queries have an acyclic join graph (that is not a star or chain).
	Tree
	// Dense queries contain at least one cycle (and are not a pure cycle).
	Dense
)

// String returns the class name used in the paper.
func (c Class) String() string {
	switch c {
	case Star:
		return "star"
	case Chain:
		return "chain"
	case Cycle:
		return "cycle"
	case Tree:
		return "tree"
	default:
		return "dense"
	}
}

// JoinGraph is the bipartite join graph J(Q) of Definition 1, in a
// bitset-friendly representation. Join variables are variables shared
// by at least two triple patterns; they are indexed densely.
type JoinGraph struct {
	Query *sparql.Query

	// NumTP is |V_T|, the number of triple patterns.
	NumTP int
	// Vars holds the join-variable names; VarIndex inverts it.
	Vars     []string
	VarIndex map[string]int
	// Ntp[j] is N_tp(v_j): the set of triple patterns containing join
	// variable j (so the degree of v_j is Ntp[j].Len()).
	Ntp []bitset.TPSet
	// TPVars[i] lists the join-variable indexes contained in pattern i.
	TPVars [][]int
	// Adj[i] is the set of patterns sharing at least one join variable
	// with pattern i (excluding i itself).
	Adj []bitset.TPSet
	// exAdj[i·|V_J|+j] is the set of patterns sharing a join variable
	// other than j with pattern i (excluding i itself): Adj[i] in the
	// join graph J(Q) − v_j. Algorithm 2 walks these masks, so removing
	// a variable costs no work per query.
	exAdj []bitset.TPSet
}

// NewJoinGraph builds the join graph of q. It returns an error when the
// query exceeds bitset.MaxPatterns triple patterns.
func NewJoinGraph(q *sparql.Query) (*JoinGraph, error) {
	n := len(q.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("querygraph: query has no triple patterns")
	}
	if n > bitset.MaxPatterns {
		return nil, tooManyPatterns(n)
	}
	jg := &JoinGraph{
		Query:    q,
		NumTP:    n,
		VarIndex: make(map[string]int),
		TPVars:   make([][]int, n),
		Adj:      make([]bitset.TPSet, n),
	}
	// Collect the patterns containing each variable.
	occ := map[string]bitset.TPSet{}
	var order []string
	for i, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			if _, ok := occ[v]; !ok {
				order = append(order, v)
			}
			occ[v] = occ[v].Add(i)
		}
	}
	// Join variables are those shared by >= 2 patterns.
	for _, v := range order {
		if occ[v].Len() < 2 {
			continue
		}
		j := len(jg.Vars)
		jg.VarIndex[v] = j
		jg.Vars = append(jg.Vars, v)
		jg.Ntp = append(jg.Ntp, occ[v])
	}
	jg.link()
	return jg, nil
}

// tooManyPatterns is the failure of a query over bitset.MaxPatterns
// patterns.
func tooManyPatterns(n int) error {
	return fmt.Errorf("querygraph: query has %d triple patterns, maximum is %d: %w", n, bitset.MaxPatterns, ErrUnsupported)
}

// NewJoinGraphFromVarSets builds a join graph over abstract units:
// unit i exposes the variable names varSets[i]. Variables shared by at
// least two units become join variables. HGR-TD-CMD uses this to run
// plan enumeration over a reduced join graph whose vertices are groups
// of triple patterns (§IV-B); the Query field is nil for such graphs.
func NewJoinGraphFromVarSets(varSets [][]string) (*JoinGraph, error) {
	n := len(varSets)
	if n == 0 {
		return nil, fmt.Errorf("querygraph: no units")
	}
	if n > bitset.MaxPatterns {
		return nil, fmt.Errorf("querygraph: %d units, maximum is %d", n, bitset.MaxPatterns)
	}
	jg := &JoinGraph{
		NumTP:    n,
		VarIndex: make(map[string]int),
		TPVars:   make([][]int, n),
		Adj:      make([]bitset.TPSet, n),
	}
	occ := map[string]bitset.TPSet{}
	var order []string
	for i, vars := range varSets {
		for _, v := range vars {
			if occ[v].Has(i) {
				continue
			}
			if _, ok := occ[v]; !ok {
				order = append(order, v)
			}
			occ[v] = occ[v].Add(i)
		}
	}
	for _, v := range order {
		if occ[v].Len() < 2 {
			continue
		}
		j := len(jg.Vars)
		jg.VarIndex[v] = j
		jg.Vars = append(jg.Vars, v)
		jg.Ntp = append(jg.Ntp, occ[v])
	}
	jg.link()
	return jg, nil
}

// link derives TPVars, Adj and the exclusion masks from Ntp.
func (jg *JoinGraph) link() {
	for j, members := range jg.Ntp {
		members.Each(func(i int) bool {
			jg.TPVars[i] = append(jg.TPVars[i], j)
			jg.Adj[i] = jg.Adj[i].Union(members.Remove(i))
			return true
		})
	}
	nj := len(jg.Vars)
	jg.exAdj = make([]bitset.TPSet, jg.NumTP*nj)
	for i, vars := range jg.TPVars {
		for vj := 0; vj < nj; vj++ {
			var out bitset.TPSet
			for _, v := range vars {
				if v != vj {
					out = out.Union(jg.Ntp[v])
				}
			}
			jg.exAdj[i*nj+vj] = out.Remove(i)
		}
	}
}

// NumJoinVars is |V_J|.
func (jg *JoinGraph) NumJoinVars() int { return len(jg.Vars) }

// All returns the full pattern set of the query.
func (jg *JoinGraph) All() bitset.TPSet { return bitset.Full(jg.NumTP) }

// NumEdges is |E_J|: the total number of (pattern, join-variable)
// incidences.
func (jg *JoinGraph) NumEdges() int {
	n := 0
	for _, vs := range jg.TPVars {
		n += len(vs)
	}
	return n
}

// AdjOf returns the union of neighbors of every pattern in sub,
// restricted to s and excluding sub — the expansion frontier
// Adj(SQ) ∩ Q \ SQ used by Algorithm 2.
func (jg *JoinGraph) AdjOf(s, sub bitset.TPSet) bitset.TPSet {
	return jg.Neighbors(sub).Intersect(s).Diff(sub)
}

// Neighbors returns the union of Adj[i] over the patterns i of sub.
// Algorithm 2 grows it one extension at a time instead of recomputing
// AdjOf for every subquery it visits.
func (jg *JoinGraph) Neighbors(sub bitset.TPSet) bitset.TPSet {
	var out bitset.TPSet
	for f := sub; f != 0; f &= f - 1 {
		out |= jg.Adj[bits.TrailingZeros64(uint64(f))]
	}
	return out
}

// reach is the multi-source breadth-first search every connectivity
// primitive shares: it returns the patterns of s reachable from from∩s,
// where the neighbours of pattern i are adj[i·stride+off]. It stops as
// soon as all of s is reached.
func reach(adj []bitset.TPSet, stride, off int, s, from bitset.TPSet) bitset.TPSet {
	reached := from.Intersect(s)
	for frontier := reached; !frontier.IsEmpty() && reached != s; {
		var next bitset.TPSet
		for f := frontier; f != 0; f &= f - 1 {
			next |= adj[bits.TrailingZeros64(uint64(f))*stride+off]
		}
		frontier = next.Intersect(s).Diff(reached)
		reached = reached.Union(frontier)
	}
	return reached
}

// ReachExcluding returns the patterns of s reachable from the patterns
// of from∩s in the join graph with join variable vj removed (J(Q) − v_j
// of §III-C, Fig. 4): one breadth-first search over the precomputed
// exclusion masks, allocating nothing.
func (jg *JoinGraph) ReachExcluding(s, from bitset.TPSet, vj int) bitset.TPSet {
	return reach(jg.exAdj, len(jg.Vars), vj, s, from)
}

// Connected reports whether the patterns of s form a connected
// subgraph of the join graph. The empty set and singletons are
// connected.
func (jg *JoinGraph) Connected(s bitset.TPSet) bool {
	if s.Len() <= 1 {
		return true
	}
	return reach(jg.Adj, 1, 0, s, bitset.Single(s.Min())) == s
}

// Components returns the connected components of s in the join graph,
// ordered by their smallest member.
func (jg *JoinGraph) Components(s bitset.TPSet) []bitset.TPSet {
	var comps []bitset.TPSet
	for rest := s; !rest.IsEmpty(); {
		comp := reach(jg.Adj, 1, 0, rest, bitset.Single(rest.Min()))
		comps = append(comps, comp)
		rest = rest.Diff(comp)
	}
	return comps
}

// ComponentsExcluding returns the connected components of s in the
// join graph with join variable vj removed (J(Q) − v_j of §III-C,
// Fig. 4), ordered by their smallest member. Patterns connected only
// through vj fall apart.
func (jg *JoinGraph) ComponentsExcluding(s bitset.TPSet, vj int) []bitset.TPSet {
	var comps []bitset.TPSet
	for rest := s; !rest.IsEmpty(); {
		comp := jg.ReachExcluding(rest, bitset.Single(rest.Min()), vj)
		comps = append(comps, comp)
		rest = rest.Diff(comp)
	}
	return comps
}

// JoinVarsOf returns the indexes of the join variables of the
// subquery s: variables contained in at least two patterns of s.
func (jg *JoinGraph) JoinVarsOf(s bitset.TPSet) []int {
	var out []int
	for j := range jg.Vars {
		if jg.Ntp[j].Intersect(s).Len() >= 2 {
			out = append(out, j)
		}
	}
	return out
}

// MaxVarDegree returns the maximum degree |N_tp(v_j)| over all join
// variables (0 when there are none).
func (jg *JoinGraph) MaxVarDegree() int {
	max := 0
	for _, m := range jg.Ntp {
		if d := m.Len(); d > max {
			max = d
		}
	}
	return max
}

// Classify determines the structural class of the query (§II-B).
// Classification assumes a connected join graph; disconnected queries
// (which imply Cartesian products) are classified by their overall
// cyclicity.
func (jg *JoinGraph) Classify() Class {
	n, j := jg.NumTP, jg.NumJoinVars()
	if j == 0 {
		// No shared variables at all; degenerate. A single pattern is a
		// (trivial) star.
		return Star
	}
	// Star: one join variable shared by every pattern. Two patterns
	// sharing one variable are both a 2-star and a 2-chain; follow the
	// paper's Table III (L1 star, L2 chain) and call it a star only
	// when the shared variable occupies the same position in both
	// patterns (both radiate from a common vertex).
	if j == 1 && jg.Ntp[0] == jg.All() {
		if n == 2 && jg.Query != nil && !samePosition(jg.Query, jg.Vars[0]) {
			return Chain
		}
		return Star
	}
	edges := jg.NumEdges()
	comps := len(jg.Components(jg.All()))
	acyclic := edges == n+j-comps
	if acyclic {
		if jg.isChain() {
			return Chain
		}
		return Tree
	}
	if jg.isCycle(edges) {
		return Cycle
	}
	return Dense
}

// samePosition reports whether variable name fills the same position
// (subject/predicate/object) in every pattern that contains it.
func samePosition(q *sparql.Query, name string) bool {
	pos := -1
	for _, tp := range q.Patterns {
		p := -1
		switch {
		case tp.S.IsVar() && tp.S.Value == name:
			p = 0
		case tp.P.IsVar() && tp.P.Value == name:
			p = 1
		case tp.O.IsVar() && tp.O.Value == name:
			p = 2
		default:
			continue
		}
		if pos == -1 {
			pos = p
		} else if pos != p {
			return false
		}
	}
	return true
}

// isChain reports whether the bipartite join graph is a simple path
// with triple patterns at both ends: every join variable has degree 2,
// every pattern contains at most 2 join variables, exactly two
// patterns contain 1, and the graph is connected.
func (jg *JoinGraph) isChain() bool {
	if jg.NumTP < 2 {
		return false
	}
	ends := 0
	for i := 0; i < jg.NumTP; i++ {
		switch len(jg.TPVars[i]) {
		case 1:
			ends++
		case 2:
		default:
			return false
		}
	}
	if ends != 2 {
		return false
	}
	for _, m := range jg.Ntp {
		if m.Len() != 2 {
			return false
		}
	}
	return jg.Connected(jg.All())
}

// isCycle reports whether the join graph is a single bipartite cycle:
// every pattern has exactly 2 join variables, every variable degree 2,
// connected, |E_J| = |V_T| + |V_J|.
func (jg *JoinGraph) isCycle(edges int) bool {
	if edges != jg.NumTP+jg.NumJoinVars() {
		return false
	}
	for i := 0; i < jg.NumTP; i++ {
		if len(jg.TPVars[i]) != 2 {
			return false
		}
	}
	for _, m := range jg.Ntp {
		if m.Len() != 2 {
			return false
		}
	}
	return jg.Connected(jg.All())
}
