package sparqlopt_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"

	"sparqlopt"
	"sparqlopt/internal/httpd"
)

// ExampleOpen shows the minimal end-to-end flow: build a dataset,
// partition it, optimize a query and execute the plan.
func ExampleOpen() {
	ds := sparqlopt.NewDataset()
	ds.Add("http://ex/alice", "http://ex/knows", "http://ex/bob")
	ds.Add("http://ex/bob", "http://ex/knows", "http://ex/carol")

	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(2))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(context.Background(),
		`SELECT ?a ?c WHERE { ?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c . }`,
		sparqlopt.WithAlgorithm(sparqlopt.TDAuto))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(sys.Term(row[0]), "->", sys.Term(row[1]))
	}
	// Output:
	// http://ex/alice -> http://ex/carol
}

// ExampleSystem_Optimize inspects the chosen plan and the size of the
// explored search space without executing anything.
func ExampleSystem_Optimize() {
	ds := sparqlopt.NewDataset()
	ds.Add("http://ex/a", "http://ex/p", "http://ex/b")
	ds.Add("http://ex/b", "http://ex/q", "http://ex/c")
	ds.Add("http://ex/c", "http://ex/r", "http://ex/d")

	sys, err := sparqlopt.Open(ds, sparqlopt.WithNodes(2))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Optimize(context.Background(), `SELECT * WHERE {
		?x <http://ex/p> ?y .
		?y <http://ex/q> ?z .
		?z <http://ex/r> ?w .
	}`, sparqlopt.TDCMD)
	if err != nil {
		log.Fatal(err)
	}
	// A 3-pattern chain has T(Q) = (27-3)/6 = 4 connected
	// multi-divisions (paper Eq. 8).
	fmt.Println("enumerated join operators:", res.Counter.CMDs)
	fmt.Println("plan is valid:", res.Plan.Validate() == nil)
	// Output:
	// enumerated join operators: 4
	// plan is valid: true
}

// Example_serving shows the serving stack end to end: a System with
// the serving options, the streaming results iterator, and the same
// query over the SPARQL 1.1 HTTP protocol. RunStream yields rows as
// the engine produces them — the response never materializes, so its
// memory footprint is bounded regardless of result size.
func Example_serving() {
	ds := sparqlopt.NewDataset()
	ds.Add("http://ex/alice", "http://ex/knows", "http://ex/bob")
	ds.Add("http://ex/bob", "http://ex/knows", "http://ex/carol")

	sys, err := sparqlopt.Open(ds,
		sparqlopt.WithNodes(2),
		sparqlopt.WithPlanCache(64), // repeated shapes skip optimization
		sparqlopt.WithAdmissionControl(8, 16),
		sparqlopt.WithObservability())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	const query = `SELECT ?a ?c WHERE { ?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c . }`

	// The library face: iterate rows without materializing the result.
	rows, err := sys.RunStream(context.Background(), query, sparqlopt.WithLimit(10))
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		row := rows.Row() // valid until the next call to Next
		fmt.Println(sys.Term(row[0]), "->", sys.Term(row[1]))
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// The network face: the same call over the SPARQL 1.1 protocol.
	srv := httptest.NewServer(httpd.New(sys, httpd.Config{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Println(resp.Header.Get("Content-Type"))
	fmt.Print(string(body))
	// Output:
	// http://ex/alice -> http://ex/carol
	// application/sparql-results+json
	// {"head":{"vars":["a","c"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://ex/alice"},"c":{"type":"uri","value":"http://ex/carol"}}]}}
}

// ExamplePartitionMethod demonstrates switching the partitioning
// method: under path partitioning a downward path query is a local
// query and executes without any network traffic.
func ExamplePartitionMethod() {
	ds := sparqlopt.NewDataset()
	ds.Add("http://ex/root", "http://ex/edge", "http://ex/mid")
	ds.Add("http://ex/mid", "http://ex/edge", "http://ex/leaf")

	path, err := sparqlopt.PartitionMethod("path-bmc")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := sparqlopt.Open(ds, sparqlopt.WithMethod(path), sparqlopt.WithNodes(4))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(context.Background(),
		`SELECT * WHERE { ?a <http://ex/edge> ?b . ?b <http://ex/edge> ?c . }`,
		sparqlopt.WithAlgorithm(sparqlopt.TDAuto))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("results:", len(res.Rows))
	fmt.Println("rows moved across nodes:", res.Metrics.TransferredRows)
	// Output:
	// results: 1
	// rows moved across nodes: 0
}
