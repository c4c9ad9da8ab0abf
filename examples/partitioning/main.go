// Partitioning model walkthrough: shows how the generic combine /
// distribute model (paper §II-C) yields maximal local queries and
// local-query detection for five very different partitioning methods,
// using the paper's own running example (Fig. 1).
package main

import (
	"fmt"
	"log"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/sparql"
)

func main() {
	// The query of paper Fig. 1a (tp1..tp7).
	q, err := sparql.Parse(`SELECT * WHERE {
		?b <p1> ?a .
		?c <p2> ?a .
		?a <p3> ?e .
		?e <p4> ?g .
		?b <p5> ?f .
		?c <p6> ?d .
		?a <p7> ?d .
	}`)
	if err != nil {
		log.Fatal(err)
	}
	g := querygraph.NewGraph(q)
	jg, err := querygraph.NewJoinGraph(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %d patterns, class %s, join variables %v\n\n",
		jg.NumTP, jg.Classify(), jg.Vars)

	methods := []partition.Method{
		partition.HashSO{},
		partition.TwoHopForward{},
		partition.TwoHopBidirectional{},
		partition.PathBMC{},
		partition.UndirectedOneHop{},
	}
	for _, m := range methods {
		fmt.Printf("=== %s ===\n", m.Name())
		// Maximal local queries at each query vertex (appendix A).
		fmt.Println("maximal local queries (combine(v, G_Q)):")
		for v, term := range g.Terms {
			mlq := m.CombineQuery(g, v)
			if mlq.Len() > 1 {
				fmt.Printf("  at %-3s -> %s\n", term, tpNames(mlq))
			}
		}
		checker := partition.NewLocalChecker(m, g)
		// Probe a few subqueries from the paper's examples.
		probes := []struct {
			name string
			set  bitset.TPSet
		}{
			{"{tp1,tp2,tp3}", bitset.Of(0, 1, 2)},
			{"{tp1,tp3,tp4,tp5,tp7}", bitset.Of(0, 2, 3, 4, 6)},
			{"{tp2,tp6}", bitset.Of(1, 5)},
			{"whole query", bitset.Full(7)},
		}
		fmt.Println("local-query checks (Theorem 5, one bitset test per MLQ):")
		for _, p := range probes {
			fmt.Printf("  %-22s local=%v\n", p.name, checker.IsLocal(p.set))
		}
		fmt.Println()
	}
}

func tpNames(s bitset.TPSet) string {
	out := "{"
	first := true
	s.Each(func(i int) bool {
		if !first {
			out += ","
		}
		first = false
		out += fmt.Sprintf("tp%d", i+1)
		return true
	})
	return out + "}"
}
