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
	hoods := map[rdf.TermID][]int{}
	hood := func(v rdf.TermID) []int {
		h, ok := hoods[v]
		if !ok {
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
	covered := make(map[rdf.TermID]bool)
	type element struct {
		anchor  rdf.TermID
		triples []rdf.Triple
	}
	var elements []element
	build := func(start rdf.TermID) {
		var triples []rdf.Triple
		seen := map[rdf.TermID]bool{start: true}
		covered[start] = true
		queue := []rdf.TermID{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(v) {
				triples = append(triples, rdf.Triple{S: v, P: e.Pred, O: e.To})
				covered[e.To] = true
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
		if len(triples) > 0 {
			elements = append(elements, element{anchor: start, triples: triples})
		}
	}
	for _, v := range starts {
		build(v)
	}
	// Cover cycle components that no start vertex reaches.
	g.Vertices(func(v rdf.TermID) bool {
		if !covered[v] && len(g.Out(v)) > 0 {
			build(v)
		}
		return true
	})
	// Distribute: biggest elements first, always to the least-loaded node.
	for i := 1; i < len(elements); i++ {
		for j := i; j > 0 && len(elements[j].triples) > len(elements[j-1].triples); j-- {
			elements[j], elements[j-1] = elements[j-1], elements[j]
		}
	}
	c := newCollector(nodes)
	load := make([]int, nodes)
	for _, el := range elements {
		best := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[best] {
				best = n
			}
		}
		for _, t := range el.triples {
			c.add(best, t)
		}
		load[best] += len(el.triples)
	}
	return c.placement(nil, false), nil
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
		if n, ok := assign[v]; ok {
			return n
		}
		return hashNode(v, nodes)
	}
	return c.placement(home, true), nil
}

// greedyEdgeCut partitions the vertices into balanced BFS-grown
// regions, a drop-in substitute for METIS at this scale.
func greedyEdgeCut(g *rdf.Graph, nodes int) map[rdf.TermID]int {
	total := g.NumVertices()
	capPer := (total + nodes - 1) / nodes
	assign := make(map[rdf.TermID]int, total)
	cur, size := 0, 0
	place := func(v rdf.TermID) bool {
		if _, done := assign[v]; done {
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
		if _, done := assign[seed]; done {
			return true
		}
		queue := []rdf.TermID{seed}
		place(seed)
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
