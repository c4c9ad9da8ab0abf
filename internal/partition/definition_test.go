package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// TestDefinition2 holds every method's placement to the property the
// optimizer builds on (Definition 2): for every match of a query and
// every query vertex v, some node holds the image of combine(v, Q)
// whole — and, where the method has a home, the home of v's image is
// such a node. It crosses small random datasets, each with a hub and a
// cycle, with random connected queries at 1, 3, 4, 7 and 70 nodes.
func TestDefinition2(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	methods := []Method{HashSO, TwoHopForward, TwoHopBidirectional, PathBMC, UndirectedOneHop}
	for trial := 0; trial < 40; trial++ {
		ds := randomDataset(r)
		var queries []*querygraph.Graph
		for range 6 {
			queries = append(queries, querygraph.NewGraph(randomQuery(r)))
		}
		for _, m := range methods {
			for _, nodes := range []int{1, 3, 4, 7, 70} {
				p, err := m.Partition(ds, nodes)
				if err != nil {
					t.Fatal(err)
				}
				held := make([]map[rdf.Triple]bool, nodes)
				for n, frag := range p.Triples {
					held[n] = make(map[rdf.Triple]bool, len(frag))
					for _, tr := range frag {
						held[n][tr] = true
					}
				}
				holds := func(n int, image []rdf.Triple) bool {
					for _, tr := range image {
						if !held[n][tr] {
							return false
						}
					}
					return true
				}
				for _, g := range queries {
					matchQuery(ds, g, func(verts []rdf.TermID, triples []rdf.Triple) {
						for v := range g.Terms {
							var image []rdf.Triple
							m.CombineQuery(g, v).Each(func(tp int) bool {
								image = append(image, triples[tp])
								return true
							})
							if p.Home != nil {
								if !holds(p.Home(verts[v]), image) {
									t.Fatalf("trial %d, %s at %d nodes, %v: the home of ?%s's image lacks part of %v",
										trial, m.Name(), nodes, g.Query.Patterns, g.Terms[v].Value, image)
								}
								continue
							}
							found := false
							for n := range nodes {
								if holds(n, image) {
									found = true
									break
								}
							}
							if !found {
								t.Fatalf("trial %d, %s at %d nodes, %v: no node holds ?%s's image %v whole",
									trial, m.Name(), nodes, g.Query.Patterns, g.Terms[v].Value, image)
							}
						}
					})
				}
			}
		}
	}
}

// randomDataset returns a dataset of random edges among a few vertices
// and three predicates, plus a hub (the object of many edges) and a
// directed cycle.
func randomDataset(r *rand.Rand) *rdf.Dataset {
	ds := rdf.NewDataset()
	verts := 6 + r.Intn(10)
	v := func(i int) string { return fmt.Sprintf("v%d", i) }
	p := func() string { return fmt.Sprintf("p%d", r.Intn(3)) }
	for range 10 + r.Intn(20) {
		ds.Add(v(r.Intn(verts)), p(), v(r.Intn(verts)))
	}
	hub := v(r.Intn(verts))
	for range 3 + r.Intn(6) {
		ds.Add(v(r.Intn(verts)), "p0", hub)
	}
	cycle := 2 + r.Intn(4)
	for i := range cycle {
		ds.Add(v(i), "p1", v((i+1)%cycle))
	}
	return ds
}

// randomQuery returns a connected query of one to four patterns over
// variable vertices, each pattern joining the query so far; predicates
// are the datasets' constants or, one time in four, a fresh variable.
func randomQuery(r *rand.Rand) *sparql.Query {
	q := &sparql.Query{}
	verts := 1
	for i := range 1 + r.Intn(4) {
		a := r.Intn(verts)
		b := verts
		if i > 0 && r.Intn(3) == 0 {
			b = r.Intn(verts) // close a cycle, or a self-loop
		}
		if b == verts {
			verts++
		}
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		pred := sparql.I(fmt.Sprintf("p%d", r.Intn(3)))
		if r.Intn(4) == 0 {
			pred = sparql.V(fmt.Sprintf("p%d", i))
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.V(fmt.Sprintf("x%d", a)), P: pred, O: sparql.V(fmt.Sprintf("x%d", b)),
		})
	}
	return q
}

// matchQuery calls f with every match of the query graph g in ds: each
// vertex's image and each pattern's matched triple. Patterns bind in
// order, each sharing a vertex with those before it, and every triple
// is tried against each pattern — the datasets are small.
func matchQuery(ds *rdf.Dataset, g *querygraph.Graph, f func(verts []rdf.TermID, triples []rdf.Triple)) {
	verts := make([]rdf.TermID, len(g.Terms))
	bound := make([]bool, len(g.Terms))
	triples := make([]rdf.Triple, len(g.TPEnds))
	var step func(tp int)
	step = func(tp int) {
		if tp == len(g.TPEnds) {
			f(verts, triples)
			return
		}
		s, o := g.TPEnds[tp][0], g.TPEnds[tp][1]
		pred := g.Query.Patterns[tp].P
		for _, tr := range ds.Triples {
			if !pred.IsVar() && ds.Dict.Term(tr.P) != pred.Value {
				continue
			}
			if bound[s] && verts[s] != tr.S {
				continue
			}
			bs := bound[s]
			verts[s], bound[s] = tr.S, true
			if bound[o] && verts[o] != tr.O {
				bound[s] = bs
				continue
			}
			bo := bound[o]
			verts[o], bound[o] = tr.O, true
			triples[tp] = tr
			step(tp + 1)
			bound[o], bound[s] = bo, bs
		}
	}
	step(0)
}
