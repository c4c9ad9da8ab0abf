// Package partition implements the generic RDF data partitioning model
// of paper §II-C. A partitioning method consists of two conceptual
// phases: a combine function that assembles, for each vertex v of the
// RDF graph, an indivisible partitioning element e_v (a set of triples
// related to v), and a distribute function that places each element on
// a computing node.
//
// The same combine semantics, applied to the *query* graph, yields the
// maximal local query MLQ_v(Q) at every query vertex (appendix A,
// Definition 5), which is how the optimizer detects local queries in
// Θ(|V_Q|) regardless of the concrete partitioning method.
//
// Four methods from the literature are provided:
//
//   - HashSO — hash partitioning on both subject and object
//     (the baseline assumed by MSC and DP-Bushy);
//   - TwoHopForward — semantic hash partitioning, "2f" (Lee & Liu);
//   - PathBMC — path partitioning (Wu et al.);
//   - UndirectedOneHop — undirected one-hop with graph-partitioner
//     placement (Huang et al.; METIS replaced by a greedy BFS-grown
//     edge-cut partitioner, see DESIGN.md).
package partition

import (
	"fmt"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
)

// Method is one static RDF data partitioning method expressed in the
// generic combine/distribute model.
type Method interface {
	// Name returns the method's name as used in the paper's tables.
	Name() string

	// CombineQuery returns the maximal local query anchored at vertex v
	// of the query graph: the pattern set combine(v, G_Q).
	CombineQuery(g *querygraph.Graph, v int) bitset.TPSet

	// Partition applies the combining and distributing phases to the
	// dataset, producing a placement onto the given number of nodes.
	Partition(ds *rdf.Dataset, nodes int) (*Placement, error)
}

// Placement is the result of partitioning: the triples held by each
// computing node (deduplicated per node; a triple may be replicated
// across nodes, as the model allows).
type Placement struct {
	// Nodes is the cluster size.
	Nodes int
	// Triples holds each node's local fragment, as a set: its order is
	// the producer's (a method's placement order, or sorted when it aliases
	// an engine's stores), and readers must not write into it.
	Triples [][]rdf.Triple
	// Home is the method's distribute as a function of a term: the node
	// that holds every match of a local query anchored at v (Definition
	// 2), and with it every triple whose subject is v. nil when the method
	// has no per-vertex home: path-bmc anchors its elements at start
	// vertices.
	Home func(v rdf.TermID) int
	// DeltaHomed reports that Home keeps that meaning for local queries
	// while broadcast-ingested triples exist: the method places a triple
	// by its own endpoints (hash-so, un-1hop), so a match that uses a
	// delta triple still lies whole on its anchor's home. Under 2f and
	// 2fb a written edge x→y brings base triples around y into x's
	// element, and x's home need not hold them.
	DeltaHomed bool
}

// TotalStored returns the sum of fragment sizes (≥ the dataset size
// when the method replicates triples).
func (p *Placement) TotalStored() int {
	total := 0
	for _, ts := range p.Triples {
		total += len(ts)
	}
	return total
}

// ReplicationFactor returns TotalStored divided by the original
// dataset size.
func (p *Placement) ReplicationFactor(originalSize int) float64 {
	if originalSize == 0 {
		return 0
	}
	return float64(p.TotalStored()) / float64(originalSize)
}

// LocalChecker answers "is this subquery a local query?" for one query
// under one partitioning method, via the maximal-local-query bitsets
// of appendix A (Theorem 5). Checks cost one bitset containment test
// per distinct maximal local query.
type LocalChecker struct {
	mlqs []bitset.TPSet
	g    *querygraph.Graph
	// combines[v] is combine(v, G_Q) of query vertex v.
	combines []bitset.TPSet
}

// NewLocalChecker computes the maximal local queries at every vertex
// of the query graph.
func NewLocalChecker(m Method, g *querygraph.Graph) *LocalChecker {
	seen := map[bitset.TPSet]bool{}
	c := &LocalChecker{g: g, combines: make([]bitset.TPSet, len(g.Terms))}
	for v := range g.Terms {
		mlq := m.CombineQuery(g, v)
		c.combines[v] = mlq
		if mlq.IsEmpty() || seen[mlq] {
			continue
		}
		// Keep only maximal sets.
		dominated := false
		for _, prev := range c.mlqs {
			if mlq.SubsetOf(prev) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		out := c.mlqs[:0]
		for _, prev := range c.mlqs {
			if !prev.SubsetOf(mlq) {
				out = append(out, prev)
			}
		}
		c.mlqs = append(out, mlq)
		seen[mlq] = true
	}
	return c
}

// IsLocal reports whether the subquery s can be evaluated entirely
// with local joins: s must be a subset of some maximal local query.
// Single patterns and the empty set are always local.
func (c *LocalChecker) IsLocal(s bitset.TPSet) bool {
	if s.Len() <= 1 {
		return true
	}
	for _, mlq := range c.mlqs {
		if s.SubsetOf(mlq) {
			return true
		}
	}
	return false
}

// Anchor returns a variable v that some pattern of the local subquery s
// holds, with combine(v, G_Q) ⊇ s: every match of s then lies whole on
// the home of v's binding (see Placement.Home). It is the lowest such
// vertex, "" when no variable of s anchors it or c is nil.
func (c *LocalChecker) Anchor(s bitset.TPSet) string {
	if c == nil {
		return ""
	}
	for v, t := range c.g.Terms {
		if t.IsVar() && c.g.Incident(v).Overlaps(s) && s.SubsetOf(c.combines[v]) {
			return t.Value
		}
	}
	return ""
}

// MaximalLocalQueries returns the distinct maximal local queries.
func (c *LocalChecker) MaximalLocalQueries() []bitset.TPSet {
	out := make([]bitset.TPSet, len(c.mlqs))
	copy(out, c.mlqs)
	return out
}

// ByName returns the built-in method with the given name: "hash-so",
// "2f", "2fb", "path-bmc" or "un-1hop".
func ByName(name string) (Method, error) {
	switch name {
	case "hash-so":
		return HashSO{}, nil
	case "2f":
		return TwoHopForward{}, nil
	case "2fb":
		return TwoHopBidirectional{}, nil
	case "path-bmc":
		return PathBMC{}, nil
	case "un-1hop":
		return UndirectedOneHop{}, nil
	}
	return nil, fmt.Errorf("partition: unknown method %q", name)
}

// hashNode maps a term to a node with a splitmix64-style mixer, so
// placement does not correlate with dictionary assignment order.
func hashNode(v rdf.TermID, nodes int) int {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nodes))
}

// collector accumulates per-node triples with per-node dedup.
type collector struct {
	triples [][]rdf.Triple
	seen    []map[rdf.Triple]struct{}
}

func newCollector(nodes int) *collector {
	c := &collector{triples: make([][]rdf.Triple, nodes), seen: make([]map[rdf.Triple]struct{}, nodes)}
	for i := range c.seen {
		c.seen[i] = make(map[rdf.Triple]struct{})
	}
	return c
}

func (c *collector) add(node int, t rdf.Triple) {
	if _, dup := c.seen[node][t]; dup {
		return
	}
	c.seen[node][t] = struct{}{}
	c.triples[node] = append(c.triples[node], t)
}

// placement returns the collected fragments with the method's home
// function (nil when it has none).
func (c *collector) placement(home func(rdf.TermID) int, deltaHomed bool) *Placement {
	return &Placement{Nodes: len(c.triples), Triples: c.triples, Home: home, DeltaHomed: deltaHomed}
}

// hashHome is the home function of the methods that distribute by
// hashing the anchor vertex.
func hashHome(nodes int) func(rdf.TermID) int {
	return func(v rdf.TermID) int { return hashNode(v, nodes) }
}

func checkNodes(nodes int) error {
	if nodes <= 0 {
		return fmt.Errorf("partition: cluster size must be positive, got %d", nodes)
	}
	return nil
}
