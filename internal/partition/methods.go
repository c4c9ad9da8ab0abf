package partition

import (
	"slices"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
)

// HashSO is hash partitioning with a hash function on both the subject
// and the object of each triple (paper §V-A data partitioning (1)).
// combine(v, G) assembles the triples incident to v; distribute hashes
// v. Every triple is stored on (at most) two nodes: hash(S) and
// hash(O). Under this method all triples sharing a subject or object
// are collocated, so a subquery is local iff its patterns share a
// common vertex (the assumption hard-wired into MSC and DP-Bushy).
type HashSO struct{}

// Name implements Method.
func (HashSO) Name() string { return "Hash-SO" }

// CombineQuery implements Method: the undirected 1-hop closure — all
// patterns containing vertex v (paper Example 7).
func (HashSO) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	return g.UndirectedClosure(v, 1)
}

// Partition implements Method.
func (HashSO) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if err := checkNodes(nodes); err != nil {
		return nil, err
	}
	c := newCollector(nodes)
	for _, t := range ds.Triples {
		c.add(hashNode(t.S, nodes), t)
		c.add(hashNode(t.O, nodes), t)
	}
	return c.placement(hashHome(nodes), true), nil
}

// TwoHopForward is the semantic hash partitioning algorithm "2f" of
// Lee & Liu (paper Example 2): combine(v, G) assembles all edges
// within 2-hop forward distance of v; distribute hashes v.
type TwoHopForward struct{}

// Name implements Method.
func (TwoHopForward) Name() string { return "2f" }

// CombineQuery implements Method: the forward 2-hop closure.
func (TwoHopForward) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	return g.ForwardClosure(v, 2)
}

// Partition implements Method. A triple (s,p,o) lies within the 2-hop
// forward element of s (first hop) and of every in-neighbor of s
// (second hop), so it is placed on hash(s) and on hash(u) for each
// edge u→s.
func (TwoHopForward) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if err := checkNodes(nodes); err != nil {
		return nil, err
	}
	g := rdf.NewGraph(ds.Triples)
	c := newCollector(nodes)
	for _, t := range ds.Triples {
		c.add(hashNode(t.S, nodes), t)
		for _, e := range g.In(t.S) {
			c.add(hashNode(e.To, nodes), t)
		}
	}
	return c.placement(hashHome(nodes), false), nil
}

// TwoHopBidirectional is the bidirectional variant of semantic hash
// partitioning ("2fb" in Lee & Liu's terminology): combine(v, G)
// assembles all edges within 2 hops of v ignoring direction. It trades
// higher replication for more local queries than 2f — another point in
// the generic model's design space.
type TwoHopBidirectional struct{}

// Name implements Method.
func (TwoHopBidirectional) Name() string { return "2fb" }

// CombineQuery implements Method: the undirected 2-hop closure.
func (TwoHopBidirectional) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	return g.UndirectedClosure(v, 2)
}

// Partition implements Method. A triple (s,p,o) lies within 2
// undirected hops of s, of o, and of every neighbor of s or o: it is
// placed on the nodes hashing a vertex of s's or o's neighborhood (the
// vertex and its neighbors). Each vertex's set of nodes is computed once,
// so a hub — the class of every rdf:type triple naming it — is walked
// once, not once per triple touching it.
func (TwoHopBidirectional) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if err := checkNodes(nodes); err != nil {
		return nil, err
	}
	g := rdf.NewGraph(ds.Triples)
	hoods := make([][]int, g.Span())
	hood := func(v rdf.TermID) []int {
		h := hoods[v]
		if h == nil {
			h = []int{hashNode(v, nodes)}
			for _, e := range g.In(v) {
				h = append(h, hashNode(e.To, nodes))
			}
			for _, e := range g.Out(v) {
				h = append(h, hashNode(e.To, nodes))
			}
			slices.Sort(h)
			h = slices.Compact(h)
			hoods[v] = h
		}
		return h
	}
	c := newCollector(nodes)
	for _, t := range ds.Triples {
		for _, n := range hood(t.S) {
			c.add(n, t)
		}
		for _, n := range hood(t.O) {
			c.add(n, t)
		}
	}
	return c.placement(hashHome(nodes), false), nil
}

// PathBMC is the path partitioning approach of Wu et al. (paper
// Example 2): combine(v, G) assembles every triple reachable from a
// start vertex v following edge direction; distribute merges elements
// onto nodes. The published bottom-up merging is approximated by
// greedy least-loaded assignment of elements in decreasing size order,
// which preserves the property the optimizer depends on — every
// element is stored whole on one node (see DESIGN.md).
type PathBMC struct{}

// Name implements Method.
func (PathBMC) Name() string { return "Path-BMC" }

// CombineQuery implements Method: the unbounded forward closure
// (paper Example 5).
func (PathBMC) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	return g.ForwardClosure(v, -1)
}

// Partition implements Method. Elements are anchored at start vertices
// (no incoming edges). Vertices unreachable from any start vertex
// (cycles) anchor additional elements so that every triple is stored.
func (PathBMC) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if err := checkNodes(nodes); err != nil {
		return nil, err
	}
	g := rdf.NewGraph(ds.Triples)
	var starts []rdf.TermID
	g.Vertices(func(v rdf.TermID) bool {
		if len(g.In(v)) == 0 && len(g.Out(v)) > 0 {
			starts = append(starts, v)
		}
		return true
	})
	// An element is the out-edges of the vertices its walk reached, in
	// the order it reached them.
	type element struct {
		verts []rdf.TermID
		size  int // triples
	}
	var elements []element
	seen := make([]int, g.Span()) // the last element whose walk reached the vertex, plus one; 0 if none did
	build := func(start rdf.TermID) {
		id := len(elements) + 1
		el := element{verts: []rdf.TermID{start}}
		seen[start] = id
		for i := 0; i < len(el.verts); i++ {
			out := g.Out(el.verts[i])
			el.size += len(out)
			for _, e := range out {
				if seen[e.To] != id {
					seen[e.To] = id
					el.verts = append(el.verts, e.To)
				}
			}
		}
		elements = append(elements, el)
	}
	for _, v := range starts {
		build(v)
	}
	// Cover cycle components that no start vertex reaches.
	g.Vertices(func(v rdf.TermID) bool {
		if seen[v] == 0 && len(g.Out(v)) > 0 {
			build(v)
		}
		return true
	})
	// Distribute: biggest elements first, always to the least-loaded node.
	slices.SortStableFunc(elements, func(a, b element) int { return b.size - a.size })
	owned := make([][]element, nodes)
	load := make([]int, nodes)
	for _, el := range elements {
		best := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[best] {
				best = n
			}
		}
		owned[best] = append(owned[best], el)
		load[best] += el.size
	}
	// Elements overlap: two on one node share the out-edges of every
	// vertex both reached. Each node takes a vertex's out-edges once, where
	// its first element reaches it.
	frags := make([][]rdf.Triple, nodes)
	holder := make([]int, g.Span()) // the last node that took the vertex's out-edges, plus one
	for n, els := range owned {
		for _, el := range els {
			for _, v := range el.verts {
				if holder[v] == n+1 {
					continue
				}
				holder[v] = n + 1
				for _, e := range g.Out(v) {
					frags[n] = append(frags[n], rdf.Triple{S: v, P: e.Pred, O: e.To})
				}
			}
		}
	}
	return &Placement{Nodes: nodes, Triples: frags}, nil
}

// UndirectedOneHop is the un-one-hop method of Huang et al. (paper
// Example 2): combine(v, G) assembles the triples whose subject or
// object is v; distribute places vertices with a graph partitioner.
// METIS is replaced by a greedy BFS-grown balanced edge-cut
// partitioner; the optimizer only depends on the combine semantics.
type UndirectedOneHop struct{}

// Name implements Method.
func (UndirectedOneHop) Name() string { return "Un-1hop" }

// CombineQuery implements Method: the undirected 1-hop closure.
func (UndirectedOneHop) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	return g.UndirectedClosure(v, 1)
}

// Partition implements Method. Vertices are assigned to nodes by
// growing BFS regions of |V|/nodes vertices; each vertex's incident
// triples are stored on its node.
func (UndirectedOneHop) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if err := checkNodes(nodes); err != nil {
		return nil, err
	}
	g := rdf.NewGraph(ds.Triples)
	assign := greedyEdgeCut(g, nodes)
	c := newCollector(nodes)
	for _, t := range ds.Triples {
		c.add(assign[t.S], t)
		c.add(assign[t.O], t)
	}
	// A vertex placed after Open has only delta triples, which are on
	// every node: any node is its home, and hashing names one.
	home := func(v rdf.TermID) int {
		if int(v) < len(assign) && assign[v] >= 0 {
			return assign[v]
		}
		return hashNode(v, nodes)
	}
	return c.placement(home, true), nil
}

// greedyEdgeCut partitions the vertices into balanced BFS-grown
// regions, a drop-in substitute for METIS at this scale. It returns
// each vertex's node, indexed by TermID; -1 marks an ID that is no
// vertex.
func greedyEdgeCut(g *rdf.Graph, nodes int) []int {
	total := g.NumVertices()
	capPer := (total + nodes - 1) / nodes
	assign := make([]int, g.Span())
	for v := range assign {
		assign[v] = -1
	}
	cur, size := 0, 0
	place := func(v rdf.TermID) bool {
		if assign[v] >= 0 {
			return false
		}
		if size >= capPer && cur < nodes-1 {
			cur++
			size = 0
		}
		assign[v] = cur
		size++
		return true
	}
	g.Vertices(func(seed rdf.TermID) bool {
		if !place(seed) {
			return true
		}
		queue := []rdf.TermID{seed}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(v) {
				if place(e.To) {
					queue = append(queue, e.To)
				}
			}
			for _, e := range g.In(v) {
				if place(e.To) {
					queue = append(queue, e.To)
				}
			}
		}
		return true
	})
	return assign
}
