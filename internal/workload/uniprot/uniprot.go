// Package uniprot generates a synthetic protein graph with the
// vocabulary and join structure of the UniProt RDF dataset, plus the
// paper's benchmark queries U1–U5. The real 2-billion-triple dump is
// replaced per DESIGN.md: proteins carry annotations, cross-database
// references, enzyme classifications and replacement chains;
// interactions connect pairs of proteins. The constants U1–U5 mention
// (refseq NP_346136.1, protein Q4N2B5, keyword 67, taxon 9606, enzyme
// 2.7.7.- / 3.1.3.16, embl-cds AAN81952.1) are guaranteed to exist.
package uniprot

import (
	"fmt"
	"math/rand"

	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
)

// Namespaces of the UniProt RDF schema.
const (
	UNI   = "http://purl.uniprot.org/core/"
	RDFNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFS  = "http://www.w3.org/2000/01/rdf-schema#"
	TAXON = "http://purl.uniprot.org/taxonomy/"
)

// Config controls the generator.
type Config struct {
	// Proteins is the scale factor.
	Proteins int
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig generates a small but structurally complete graph.
func DefaultConfig() Config { return Config{Proteins: 2000, Seed: 2} }

// Generate builds the dataset and commits it in one batch: its first
// epoch holds every triple.
func Generate(cfg Config) *rdf.Dataset {
	if cfg.Proteins < 50 {
		cfg.Proteins = 50
	}
	g := &gen{ds: rdf.NewDataset(), r: rand.New(rand.NewSource(cfg.Seed)), n: cfg.Proteins}
	g.run()
	g.ds.AddBatch(g.ts)
	return g.ds
}

type gen struct {
	ds *rdf.Dataset
	ts []rdf.Triple // the generated triples, committed at the end in one batch
	r  *rand.Rand
	n  int
}

func (g *gen) add(s, p, o string) {
	d := g.ds.Dict
	g.ts = append(g.ts, rdf.Triple{S: d.Intern(s), P: d.Intern(p), O: d.Intern(o)})
}

func protein(i int) string { return fmt.Sprintf("http://purl.uniprot.org/uniprot/P%05d", i) }

func (g *gen) run() {
	enzymes := []string{
		"http://purl.uniprot.org/enzyme/2.7.7.-",
		"http://purl.uniprot.org/enzyme/3.1.3.16",
		"http://purl.uniprot.org/enzyme/1.1.1.1",
		"http://purl.uniprot.org/enzyme/4.2.1.11",
	}
	keywords := []string{
		"http://purl.uniprot.org/keywords/67",
		"http://purl.uniprot.org/keywords/181",
		"http://purl.uniprot.org/keywords/9",
	}
	taxa := []string{TAXON + "9606", TAXON + "10090", TAXON + "559292"}
	databases := []string{
		"http://purl.uniprot.org/database/EMBL",
		"http://purl.uniprot.org/database/PDB",
		"http://purl.uniprot.org/database/RefSeq",
	}
	seeAlsoTargets := []string{
		"http://purl.uniprot.org/refseq/NP_346136.1",
		"http://purl.uniprot.org/tigr/SP_1698",
		"http://purl.uniprot.org/pfam/PF00842",
		"http://purl.uniprot.org/prints/PR00992",
		"http://purl.uniprot.org/embl-cds/AAN81952.1",
	}

	annotationID := 0
	for i := 0; i < g.n; i++ {
		p := protein(i)
		g.add(p, RDFNS+"type", UNI+"Protein")
		g.add(p, UNI+"organism", taxa[g.r.Intn(len(taxa))])
		g.add(p, UNI+"encodedBy", fmt.Sprintf("http://purl.uniprot.org/gene/G%05d", i))
		// Enzyme classification for about half the proteins.
		if g.r.Float64() < 0.5 {
			g.add(p, UNI+"enzyme", enzymes[g.r.Intn(len(enzymes))])
		}
		// Keywords.
		for k := 0; k < g.r.Intn(3); k++ {
			g.add(p, UNI+"classifiedWith", keywords[g.r.Intn(len(keywords))])
		}
		// Cross references: a node with a database, linked via seeAlso.
		for k := 0; k < 1+g.r.Intn(3); k++ {
			link := fmt.Sprintf("http://purl.uniprot.org/xref/X%05d_%d", i, k)
			g.add(p, RDFS+"seeAlso", link)
			g.add(link, UNI+"database", databases[g.r.Intn(len(databases))])
		}
		// Direct seeAlso references into other databases.
		if g.r.Float64() < 0.2 {
			g.add(p, RDFS+"seeAlso", seeAlsoTargets[g.r.Intn(len(seeAlsoTargets))])
		}
		// Annotations with comments and ranges.
		for k := 0; k < 1+g.r.Intn(3); k++ {
			a := fmt.Sprintf("http://purl.uniprot.org/annotation/A%06d", annotationID)
			annotationID++
			g.add(p, UNI+"annotation", a)
			g.add(a, RDFS+"comment", fmt.Sprintf(`"annotation text %d"`, annotationID))
			g.add(a, UNI+"range", fmt.Sprintf("http://purl.uniprot.org/range/R%06d", annotationID))
			if g.r.Float64() < 0.25 {
				g.add(a, RDFNS+"type", UNI+"Disease_Annotation")
			} else {
				g.add(a, RDFNS+"type", UNI+"Function_Annotation")
			}
		}
		// Replacement chains: P_i replaces P_{i-1} (and the inverse).
		if i > 0 && g.r.Float64() < 0.3 {
			prev := protein(i - 1)
			g.add(p, UNI+"replaces", prev)
			g.add(prev, UNI+"replacedBy", p)
		}
	}

	// Interactions between random protein pairs.
	for k := 0; k < g.n; k++ {
		ia := fmt.Sprintf("http://purl.uniprot.org/interaction/I%06d", k)
		g.add(ia, RDFNS+"type", UNI+"Interaction")
		g.add(ia, UNI+"participant", protein(g.r.Intn(g.n)))
		g.add(ia, UNI+"participant", protein(g.r.Intn(g.n)))
	}

	// Guarantee the benchmark constants and their surroundings.
	g.benchmarkEntities(seeAlsoTargets)
}

// benchmarkEntities wires up the specific entities U1–U5 query for.
func (g *gen) benchmarkEntities(seeAlsoTargets []string) {
	// U1: one protein referencing all four cross-database entries.
	star := protein(0)
	for _, tgt := range seeAlsoTargets[:4] {
		g.add(star, RDFS+"seeAlso", tgt)
	}

	// U2: Q4N2B5 with a replacedBy/replaces chain ending at a
	// cross-reference with a database.
	q := "http://purl.uniprot.org/uniprot/Q4N2B5"
	g.add(q, RDFNS+"type", UNI+"Protein")
	a, ab, b := protein(1), protein(2), protein(3)
	g.add(q, UNI+"replacedBy", a)
	g.add(a, UNI+"replaces", ab)
	g.add(ab, UNI+"replacedBy", b)
	// b's seeAlso cross-references already carry databases.

	// U3: two interacting proteins with the queried enzyme classes,
	// annotations, replaces and encodedBy.
	p1, p2, p3 := protein(4), protein(5), protein(6)
	g.add(p1, UNI+"enzyme", "http://purl.uniprot.org/enzyme/2.7.7.-")
	g.add(p2, UNI+"enzyme", "http://purl.uniprot.org/enzyme/3.1.3.16")
	g.add(p1, UNI+"replaces", p3)
	ia := "http://purl.uniprot.org/interaction/IBENCH"
	g.add(ia, RDFNS+"type", UNI+"Interaction")
	g.add(ia, UNI+"participant", p1)
	g.add(ia, UNI+"participant", p2)

	// U4: a protein with keyword 67, the embl-cds reference and a
	// replaces chain into annotated proteins.
	u4 := protein(7)
	g.add(u4, UNI+"classifiedWith", "http://purl.uniprot.org/keywords/67")
	g.add(u4, RDFS+"seeAlso", "http://purl.uniprot.org/embl-cds/AAN81952.1")
	g.add(u4, UNI+"replaces", protein(8))
	g.add(protein(8), UNI+"replacedBy", protein(9))

	// U5 needs human proteins with disease annotations; ensure one.
	u5 := protein(10)
	g.add(u5, UNI+"organism", TAXON+"9606")
	ann := "http://purl.uniprot.org/annotation/ABENCH"
	g.add(u5, UNI+"annotation", ann)
	g.add(ann, RDFNS+"type", UNI+"Disease_Annotation")
	g.add(ann, RDFS+"comment", `"benchmark disease annotation"`)
}

const prefixes = `
PREFIX uni: <http://purl.uniprot.org/core/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX schema: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX taxon: <http://purl.uniprot.org/taxonomy/>
`

// queryTexts holds U1–U5 as printed in the paper's appendix (the
// "schema:" prefix is bound to rdf-schema#, as there).
var queryTexts = map[string]string{
	"U1": prefixes + `
SELECT ?a ?vo WHERE {
	?a uni:encodedBy ?vo .
	?a schema:seeAlso <http://purl.uniprot.org/refseq/NP_346136.1> .
	?a schema:seeAlso <http://purl.uniprot.org/tigr/SP_1698> .
	?a schema:seeAlso <http://purl.uniprot.org/pfam/PF00842> .
	?a schema:seeAlso <http://purl.uniprot.org/prints/PR00992> .
}`,
	"U2": prefixes + `
SELECT ?a ?ab ?b ?link ?db WHERE {
	<http://purl.uniprot.org/uniprot/Q4N2B5> uni:replacedBy ?a .
	?a uni:replaces ?ab .
	?ab uni:replacedBy ?b .
	?b rdfs:seeAlso ?link .
	?link uni:database ?db .
}`,
	"U3": prefixes + `
SELECT ?p2 ?interaction ?p1 ?annotation ?text ?en WHERE {
	?p1 uni:enzyme <http://purl.uniprot.org/enzyme/2.7.7.-> .
	?p1 rdf:type uni:Protein .
	?interaction uni:participant ?p1 .
	?interaction rdf:type uni:Interaction .
	?interaction uni:participant ?p2 .
	?p2 rdf:type uni:Protein .
	?p2 uni:enzyme <http://purl.uniprot.org/enzyme/3.1.3.16> .
	?p1 uni:annotation ?annotation .
	?p1 uni:replaces ?p3 .
	?p1 uni:encodedBy ?en .
	?annotation rdfs:comment ?text .
}`,
	"U4": prefixes + `
SELECT ?a ?ab ?b ?annotation ?range WHERE {
	?a uni:classifiedWith <http://purl.uniprot.org/keywords/67> .
	?a schema:seeAlso <http://purl.uniprot.org/embl-cds/AAN81952.1> .
	?a uni:replaces ?ab .
	?ab uni:replacedBy ?b .
	?b uni:annotation ?annotation .
	?annotation uni:range ?range .
}`,
	"U5": prefixes + `
SELECT ?protein ?annotation WHERE {
	?protein uni:annotation ?annotation .
	?protein rdf:type uni:Protein .
	?protein uni:organism taxon:9606 .
	?annotation rdf:type <http://purl.uniprot.org/core/Disease_Annotation> .
	?annotation rdfs:comment ?text .
}`,
}

// QueryNames lists the benchmark queries in the paper's order.
var QueryNames = []string{"U1", "U2", "U3", "U4", "U5"}

// Query parses benchmark query name (U1–U5). It panics on an unknown
// name — the names are compile-time fixtures.
func Query(name string) *sparql.Query {
	text, ok := queryTexts[name]
	if !ok {
		panic("uniprot: unknown query " + name)
	}
	return sparql.MustParse(text)
}

// QueryText returns the SPARQL source of a benchmark query.
func QueryText(name string) string {
	text, ok := queryTexts[name]
	if !ok {
		panic("uniprot: unknown query " + name)
	}
	return text
}
