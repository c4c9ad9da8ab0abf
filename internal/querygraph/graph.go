package querygraph

import (
	"sparqlopt/internal/bitset"
	"sparqlopt/internal/sparql"
)

// Graph is the query graph G_Q = (V_Q, E_Q) of paper §II-A: a directed
// labeled graph whose vertices are the distinct subject/object terms
// (variables and constants) and whose edges are the triple patterns,
// directed from subject to object and labeled with the predicate.
//
// The partitioning model's query-side combine function walks this
// graph to derive maximal local queries (appendix A).
type Graph struct {
	Query *sparql.Query

	// Terms holds the distinct subject/object terms.
	Terms []sparql.Term

	// SubjOf and ObjOf give, per vertex, the patterns having the vertex
	// as subject resp. object.
	SubjOf []bitset.TPSet
	ObjOf  []bitset.TPSet

	// TPEnds gives, per pattern, the (subject, object) vertex indexes.
	TPEnds [][2]int
}

// NewGraph builds the query graph of q. Queries wider than
// bitset.MaxPatterns are rejected by NewJoinGraph; callers typically
// construct both views together via Build.
func NewGraph(q *sparql.Query) *Graph {
	g := &Graph{Query: q, TPEnds: make([][2]int, len(q.Patterns))}
	index := make(map[sparql.Term]int)
	vertex := func(t sparql.Term) int {
		if i, ok := index[t]; ok {
			return i
		}
		i := len(g.Terms)
		index[t] = i
		g.Terms = append(g.Terms, t)
		g.SubjOf = append(g.SubjOf, 0)
		g.ObjOf = append(g.ObjOf, 0)
		return i
	}
	for i, tp := range q.Patterns {
		s := vertex(tp.S)
		o := vertex(tp.O)
		g.SubjOf[s] = g.SubjOf[s].Add(i)
		g.ObjOf[o] = g.ObjOf[o].Add(i)
		g.TPEnds[i] = [2]int{s, o}
	}
	return g
}

// NumVertices is |V_Q|.
func (g *Graph) NumVertices() int { return len(g.Terms) }

// Incident returns the patterns having vertex v as subject or object.
func (g *Graph) Incident(v int) bitset.TPSet {
	return g.SubjOf[v].Union(g.ObjOf[v])
}

// ForwardClosure returns the patterns reachable from vertex v by
// following edges in their subject-to-object direction only, up to
// maxHops edges deep (maxHops < 0 means unbounded). This implements
// the combine semantics of semantic hash partitioning (2-hop forward)
// and path partitioning.
func (g *Graph) ForwardClosure(v int, maxHops int) bitset.TPSet {
	var tps bitset.TPSet
	type item struct{ vertex, depth int }
	seen := make([]bool, len(g.Terms))
	queue := []item{{v, 0}}
	seen[v] = true
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if maxHops >= 0 && it.depth >= maxHops {
			continue
		}
		g.SubjOf[it.vertex].Each(func(tp int) bool {
			tps = tps.Add(tp)
			o := g.TPEnds[tp][1]
			if !seen[o] {
				seen[o] = true
				queue = append(queue, item{o, it.depth + 1})
			}
			return true
		})
	}
	return tps
}

// UndirectedClosure returns the patterns reachable from vertex v
// ignoring edge direction, up to maxHops edges deep (maxHops < 0 means
// unbounded).
func (g *Graph) UndirectedClosure(v int, maxHops int) bitset.TPSet {
	var tps bitset.TPSet
	type item struct{ vertex, depth int }
	seen := make([]bool, len(g.Terms))
	queue := []item{{v, 0}}
	seen[v] = true
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if maxHops >= 0 && it.depth >= maxHops {
			continue
		}
		g.Incident(it.vertex).Each(func(tp int) bool {
			tps = tps.Add(tp)
			for _, next := range g.TPEnds[tp] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, item{next, it.depth + 1})
				}
			}
			return true
		})
	}
	return tps
}

// Views bundles the two graph views of one query.
type Views struct {
	Join  *JoinGraph
	Query *Graph
}

// Build constructs both views, validating the query size once.
func Build(q *sparql.Query) (*Views, error) {
	jg, err := NewJoinGraph(q)
	if err != nil {
		return nil, err
	}
	return &Views{Join: jg, Query: NewGraph(q)}, nil
}
