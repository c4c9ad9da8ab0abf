package partition

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
)

// Method is one static RDF data partitioning method, declared once in
// the generic model: combine(v, G) is the closure of v — every edge
// within hops edges of v, following edge direction or ignoring it — and
// distribute places each element on a node. The same closure drives
// both sides: on the query graph it is combine(v, G_Q), the maximal
// local query at v (Definition 2), and on the data graph it decides
// where each triple goes. The built-in methods are the package values
// below. The zero Method has the empty closure: under it only single
// patterns are local, and it cannot partition.
type Method struct {
	name string
	// undirected closures ignore edge direction; the others follow it.
	undirected bool
	// hops bounds the closure in edges from v; -1 is unbounded.
	hops int
	// edgeCut distributes by the greedy edge cut over the data graph;
	// the others hash the anchor vertex.
	edgeCut bool
}

var (
	// HashSO is hash partitioning with a hash function on both the
	// subject and the object of each triple (paper §V-A data partitioning
	// (1)). combine(v, G) assembles the triples incident to v; distribute
	// hashes v. Every triple is stored on (at most) two nodes: hash(S) and
	// hash(O). Under this method all triples sharing a subject or object
	// are collocated, so a subquery is local iff its patterns share a
	// common vertex (the assumption hard-wired into MSC and DP-Bushy).
	HashSO = Method{name: "Hash-SO", undirected: true, hops: 1}

	// TwoHopForward is the semantic hash partitioning algorithm "2f" of
	// Lee & Liu (paper Example 2): combine(v, G) assembles all edges
	// within 2-hop forward distance of v; distribute hashes v.
	TwoHopForward = Method{name: "2f", hops: 2}

	// TwoHopBidirectional is the bidirectional variant of semantic hash
	// partitioning ("2fb" in Lee & Liu's terminology): combine(v, G)
	// assembles all edges within 2 hops of v ignoring direction. It
	// trades higher replication for more local queries than 2f — another
	// point in the generic model's design space.
	TwoHopBidirectional = Method{name: "2fb", undirected: true, hops: 2}

	// PathBMC is the path partitioning approach of Wu et al. (paper
	// Example 2): combine(v, G) assembles every triple reachable from a
	// start vertex v following edge direction; distribute merges elements
	// onto nodes. The published bottom-up merging is approximated by
	// greedy least-loaded assignment of elements in decreasing size
	// order, which preserves the property the optimizer depends on —
	// every element is stored whole on one node (see DESIGN.md).
	PathBMC = Method{name: "Path-BMC", hops: -1}

	// UndirectedOneHop is the un-one-hop method of Huang et al. (paper
	// Example 2): combine(v, G) assembles the triples whose subject or
	// object is v; distribute places vertices with a graph partitioner.
	// METIS is replaced by a greedy BFS-grown balanced edge-cut
	// partitioner; the optimizer only depends on the combine semantics.
	UndirectedOneHop = Method{name: "Un-1hop", undirected: true, hops: 1, edgeCut: true}
)

// byName is the table of built-in methods, by the names the commands'
// -partition flag takes.
var byName = map[string]Method{
	"hash-so":  HashSO,
	"2f":       TwoHopForward,
	"2fb":      TwoHopBidirectional,
	"path-bmc": PathBMC,
	"un-1hop":  UndirectedOneHop,
}

// ByName returns the built-in method with the given name: "hash-so",
// "2f", "2fb", "path-bmc" or "un-1hop".
func ByName(name string) (Method, error) {
	if m, ok := byName[name]; ok {
		return m, nil
	}
	return Method{}, fmt.Errorf("partition: unknown method %q", name)
}

// Name returns the method's name as used in the paper's tables.
func (m Method) Name() string { return m.name }

// CombineQuery returns the maximal local query anchored at vertex v of
// the query graph: the pattern set combine(v, G_Q), the method's
// closure of v (paper Examples 5 and 7).
func (m Method) CombineQuery(g *querygraph.Graph, v int) bitset.TPSet {
	if m.undirected {
		return g.UndirectedClosure(v, m.hops)
	}
	return g.ForwardClosure(v, m.hops)
}

// Partition applies the combining and distributing phases to the
// dataset, producing a placement onto the given number of nodes.
//
// A bounded closure places by node sets: set(v) starts as {home(v)},
// and each of hops−1 rounds ORs in the sets of v's in-neighbours (and
// of its out-neighbours when the closure is undirected), so set(v) ends
// as the homes of the anchors whose elements hold v's out-edges (every
// edge at v, when undirected). A triple goes to set(s), united with
// set(o) when the closure is undirected. Each fragment keeps the
// dataset's triple order. An unbounded closure merges whole elements
// onto nodes (mergeElements).
func (m Method) Partition(ds *rdf.Dataset, nodes int) (*Placement, error) {
	if m.hops == 0 {
		return nil, errors.New("partition: the zero Method has no closure to place by")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("partition: cluster size must be positive, got %d", nodes)
	}
	if m.hops < 0 {
		return &Placement{Nodes: nodes, Triples: mergeElements(ds, nodes)}, nil
	}
	home := func(v rdf.TermID) int { return hashNode(v, nodes) }
	if m.edgeCut {
		home = edgeCutHome(ds, nodes)
	}
	// Writers may intern terms meanwhile; every term of ds.Triples is
	// below the length read here.
	span, words := ds.Dict.Len(), (nodes+63)/64
	sets := make([]uint64, span*words)
	for v := range span {
		n := home(rdf.TermID(v))
		sets[v*words+n/64] |= 1 << (n % 64)
	}
	for range m.hops - 1 {
		next := slices.Clone(sets)
		for _, t := range ds.Triples {
			s, o := int(t.S)*words, int(t.O)*words
			for w := range words {
				next[o+w] |= sets[s+w]
				if m.undirected {
					next[s+w] |= sets[o+w]
				}
			}
		}
		sets = next
	}
	// The first pass counts each fragment, the second fills it.
	frags := make([][]rdf.Triple, nodes)
	sizes := make([]int, nodes)
	for pass := range 2 {
		for _, t := range ds.Triples {
			s, o := int(t.S)*words, int(t.O)*words
			for w := range words {
				u := sets[s+w]
				if m.undirected {
					u |= sets[o+w]
				}
				for ; u != 0; u &= u - 1 {
					n := w*64 + bits.TrailingZeros64(u)
					if pass == 0 {
						sizes[n]++
					} else {
						frags[n] = append(frags[n], t)
					}
				}
			}
		}
		if pass == 0 {
			for n, size := range sizes {
				frags[n] = make([]rdf.Triple, 0, size)
			}
		}
	}
	return &Placement{Nodes: nodes, Triples: frags, Home: home, DeltaHomed: m.hops == 1, Homed: m.homed()}, nil
}

// homed returns the triple positions a bounded closure's placement homes:
// set(v) starts as {home(v)} and only grows, and a triple goes to set(s),
// united with set(o) when the closure is undirected.
func (m Method) homed() Positions {
	if m.undirected {
		return Subject | Object
	}
	return Subject
}

// mergeElements is path-bmc's placement. Elements are anchored at start
// vertices (no incoming edges). Vertices unreachable from any start
// vertex (cycles) anchor additional elements so that every triple is
// stored.
func mergeElements(ds *rdf.Dataset, nodes int) [][]rdf.Triple {
	g := rdf.NewGraph(ds.Triples)
	// An element is the out-edges of the vertices its walk reached, in
	// the order it reached them: verts[off : off+len] of one flat slice
	// every element's walk appends to.
	type element struct {
		off, len int
		size     int // triples
		node     int
	}
	var elements []element
	var verts []rdf.TermID
	seen := make([]int32, g.Span()) // the last element whose walk reached the vertex, plus one; 0 if none did
	build := func(start rdf.TermID) {
		id := int32(len(elements) + 1)
		el := element{off: len(verts)}
		verts = append(verts, start)
		seen[start] = id
		for i := el.off; i < len(verts); i++ {
			out := g.Out(verts[i])
			el.size += len(out)
			for _, e := range out {
				if seen[e.To] != id {
					seen[e.To] = id
					verts = append(verts, e.To)
				}
			}
		}
		el.len = len(verts) - el.off
		elements = append(elements, el)
	}
	g.Vertices(func(v rdf.TermID) bool {
		if len(g.In(v)) == 0 && len(g.Out(v)) > 0 {
			build(v)
		}
		return true
	})
	// Cover cycle components that no start vertex reaches.
	g.Vertices(func(v rdf.TermID) bool {
		if seen[v] == 0 && len(g.Out(v)) > 0 {
			build(v)
		}
		return true
	})
	// Distribute: biggest elements first, always to the least-loaded node.
	slices.SortStableFunc(elements, func(a, b element) int { return b.size - a.size })
	load := make([]int, nodes)
	for i := range elements {
		best := 0
		for n := 1; n < nodes; n++ {
			if load[n] < load[best] {
				best = n
			}
		}
		elements[i].node = best
		load[best] += elements[i].size
	}
	// Each node's elements, in the order it took them.
	slices.SortStableFunc(elements, func(a, b element) int { return a.node - b.node })
	// Elements overlap: two on one node share the out-edges of every
	// vertex both reached. Each node takes a vertex's out-edges once, where
	// its first element reaches it. The first pass counts each fragment,
	// the second fills it; holder stamps the vertices a node took in the
	// pass.
	frags := make([][]rdf.Triple, nodes)
	sizes := make([]int, nodes)
	holder := make([]int32, g.Span()) // the last (pass, node) that took the vertex's out-edges, plus one
	for pass := range 2 {
		for _, el := range elements {
			n, stamp := el.node, int32(pass*nodes+el.node+1)
			for _, v := range verts[el.off : el.off+el.len] {
				if holder[v] == stamp {
					continue
				}
				holder[v] = stamp
				out := g.Out(v)
				if pass == 0 {
					sizes[n] += len(out)
					continue
				}
				for _, e := range out {
					frags[n] = append(frags[n], rdf.Triple{S: v, P: e.Pred, O: e.To})
				}
			}
		}
		if pass == 0 {
			for n, size := range sizes {
				frags[n] = make([]rdf.Triple, 0, size)
			}
		}
	}
	return frags
}

// edgeCutHome is un-1hop's distribute: each vertex's node under the
// greedy edge cut. A vertex placed after Open has only delta triples,
// which are on every node: any node is its home, and hashing names one.
func edgeCutHome(ds *rdf.Dataset, nodes int) func(rdf.TermID) int {
	assign := greedyEdgeCut(rdf.NewGraph(ds.Triples), nodes)
	return func(v rdf.TermID) int {
		if int(v) < len(assign) && assign[v] >= 0 {
			return assign[v]
		}
		return hashNode(v, nodes)
	}
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

// hashNode maps a term to a node with a splitmix64-style mixer, so
// placement does not correlate with dictionary assignment order.
func hashNode(v rdf.TermID, nodes int) int {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nodes))
}
