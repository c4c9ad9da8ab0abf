package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sparqlopt/internal/bitset"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/resilience"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/workload/lubm"
)

// TestDeterminismRootHome is the oracle for the root's home rule. Over a
// random graph partitioned by every method, with 0–3 delta chunks (some
// of their vertices in no base triple) and healthy or with any single
// node dead, it evaluates root scans — variable and constant subjects —,
// root local joins and root broadcast joins — over scans, and over an
// anchored local join and a scan — through open and every node's step.
// Wherever the stream would skip its seen-set (dedupFree), the nodes'
// outputs must be pairwise disjoint sets whose union is Reference;
// elsewhere their union must still be Reference. The home rule must hold
// where it is claimed: every root scan under a method with homes, every
// anchored root local join under hash-so and un-1hop, and under 2f and
// 2fb with no delta, and every homed broadcast root (see
// Snap.homedOn) — under hash-so and un-1hop, which home both positions,
// every broadcast over scans. Under 2f, 2fb and path-bmc with a delta a
// local join can miss a match that uses a delta triple, so the cases
// holding one are not held to Reference here.
func TestDeterminismRootHome(t *testing.T) {
	const nodes = 4
	r := rand.New(rand.NewSource(43))
	full := rdf.NewDataset()
	vertex := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, r.Intn(n)) }
	for i := 0; i < 160; i++ {
		full.Add(vertex("v", 30), vertex("p", 3), vertex("v", 30))
	}
	base := len(full.Triples)
	var chunks [][]rdf.Triple
	for c := 0; c < 3; c++ {
		var chunk []rdf.Triple
		for i := 0; i < 12; i++ {
			s, o := vertex("v", 30), vertex("v", 30)
			if i%4 == 0 {
				s = vertex("w", 4) // a vertex no base triple holds
			}
			before := len(full.Triples)
			if t := full.Add(s, vertex("p", 3), o); len(full.Triples) > before {
				chunk = append(chunk, t)
			}
		}
		chunks = append(chunks, chunk)
	}
	scans := []string{
		`SELECT * WHERE { ?x <p0> ?y . }`,
		`SELECT * WHERE { ?x ?p ?y . }`,
		`SELECT * WHERE { <v3> ?p ?y . }`,
		`SELECT * WHERE { <w0> ?p ?y . }`,
		`SELECT ?y WHERE { ?x <p1> ?y . }`,
	}
	joins := []string{
		`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z . }`,
		`SELECT ?x ?y WHERE { ?x <p0> ?y . ?x <p1> ?z . }`,
		`SELECT ?y ?z WHERE { ?x <p0> ?y . ?x <p1> ?z . }`,
		`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . }`,
		`SELECT ?x WHERE { ?x <p0> ?y . ?y <p1> ?z . }`,
		`SELECT ?y ?z WHERE { ?x <p0> ?y . ?y <p1> ?z . }`,
		`SELECT * WHERE { ?y <p0> ?x . ?z <p2> ?x . }`,
		`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . ?z <p2> ?x . }`,
		`SELECT * WHERE { ?x <p0> ?y . ?x <p2> ?y . }`,
	}
	// Broadcast roots on a variable, over scans or, when local is set,
	// over the local join of the first two patterns and the third.
	broadcasts := []struct {
		src, on string
		local   bool
	}{
		{`SELECT * WHERE { ?x <p0> ?y . ?y <p1> ?z . }`, "y", false},
		{`SELECT ?y ?z WHERE { ?x <p0> ?y . ?y <p1> ?z . }`, "y", false},
		{`SELECT * WHERE { ?y <p0> ?x . ?z <p2> ?x . }`, "x", false},
		{`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z . ?w <p2> ?x . }`, "x", false},
		{`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z . ?w <p2> ?x . }`, "x", true},
		{`SELECT ?x ?w WHERE { ?x <p0> ?y . ?x <p1> ?z . ?w <p2> ?x . }`, "x", true},
	}
	ctx := context.Background()
	saw := map[string]bool{}
	for _, name := range []string{"hash-so", "2f", "2fb", "un-1hop", "path-bmc"} {
		m, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for deltas := 0; deltas <= len(chunks); deltas++ {
			cut := base
			for _, c := range chunks[:len(chunks)-deltas] {
				cut += len(c)
			}
			placement, err := m.Partition(&rdf.Dataset{Dict: full.Dict, Triples: full.Triples[:cut]}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(full.Dict, placement)
			eng.SetFailover(&FailoverPolicy{})
			for _, c := range chunks[len(chunks)-deltas:] {
				eng.ApplyIngest(c, nil)
			}
			snap := eng.Snapshot()
			var cases []*plan.Node
			var queries []*sparql.Query
			for _, src := range scans {
				queries = append(queries, sparql.MustParse(src))
				cases = append(cases, plan.NewScan(0, 1, cost.Default))
			}
			for _, src := range joins {
				q := sparql.MustParse(src)
				all := bitset.Full(len(q.Patterns))
				checker := partition.NewLocalChecker(m, querygraph.NewGraph(q))
				if !checker.IsLocal(all) {
					continue
				}
				children := make([]*plan.Node, len(q.Patterns))
				for i := range children {
					children[i] = plan.NewScan(i, 1, cost.Default)
				}
				j := plan.NewJoin(plan.LocalJoin, "", children, 1, cost.Default)
				j.Anchor = checker.Anchor(all)
				queries, cases = append(queries, q), append(cases, j)
			}
			for _, b := range broadcasts {
				q := sparql.MustParse(b.src)
				children := make([]*plan.Node, len(q.Patterns))
				for i := range children {
					children[i] = plan.NewScan(i, 1, cost.Default)
				}
				if b.local {
					pair := bitset.Single(0).Union(bitset.Single(1))
					checker := partition.NewLocalChecker(m, querygraph.NewGraph(q))
					if !checker.IsLocal(pair) {
						continue
					}
					j := plan.NewJoin(plan.LocalJoin, "", children[:2], 1, cost.Default)
					j.Anchor = checker.Anchor(pair)
					children = []*plan.Node{j, children[2]}
				}
				queries, cases = append(queries, q), append(cases, plan.NewJoin(plan.BroadcastJoin, b.on, children, 1, cost.Default))
			}
			for c, p := range cases {
				q := queries[c]
				ref, err := Reference(full, q)
				if err != nil {
					t.Fatal(err)
				}
				want := canonRows(&Relation{Vars: ref.Vars, Rows: ref.Rows})
				homed := placement.Home != nil
				if p.Alg == plan.BroadcastJoin {
					homed = false // the open tells (TraceNode.Homed)
					if deltas > 0 && !placement.DeltaHomed && p.Children[0].Alg == plan.LocalJoin {
						continue // a 2f, 2fb or path-bmc local join may miss delta matches
					}
				}
				if p.Alg == plan.LocalJoin {
					suspended := deltas > 0 && !placement.DeltaHomed
					if got := snap.joinHome(p) != nil; got != (homed && p.Anchor != "" && !suspended) {
						t.Fatalf("%s/%d deltas: %s: home rule applies = %v", name, deltas, q, got)
					}
					if suspended {
						continue // a 2f or 2fb local join may miss delta matches
					}
					homed = homed && p.Anchor != ""
				}
				for dead := -1; dead < nodes; dead++ {
					id := fmt.Sprintf("%s/%d deltas/dead=%d: %s", name, deltas, dead, q)
					fo := &failoverState{}
					if dead >= 0 {
						fo.markDead(dead, "scan")
					}
					root := &rootOut{vars: ref.Vars}
					op, err := eng.open(ctx, p, q, ExecEnv{Snap: snap, fo: fo}, root)
					var parts []*Relation
					if err == nil {
						parts, err = stepAll(ctx, op)
					}
					var ue *resilience.UnavailableError
					if errors.As(err, &ue) {
						continue // the dead node held a triple no other node has
					}
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if p.Alg == plan.BroadcastJoin {
						homed = op.tr.Homed
						bothHomed := name == "hash-so" || name == "un-1hop"
						if placement.Home == nil && homed || bothHomed && p.Children[0].Alg == plan.Scan && !homed {
							t.Errorf("%s: broadcast root homed = %v", id, homed)
						}
					}
					var got [][]rdf.TermID
					for _, part := range parts {
						cols := make([]int, len(ref.Vars))
						for i, v := range ref.Vars {
							cols[i] = part.colIndex(v)
						}
						for _, row := range part.Rows {
							got = append(got, projectCols(row, cols))
						}
					}
					flat := canonRows(&Relation{Vars: ref.Vars, Rows: got})
					free := dedupFree(nodes, root)
					if homed && len(ref.Vars) == len(q.Vars()) && !free {
						t.Errorf("%s: a home-filtered root projecting its schema keeps the seen-set (%+v)", id, *root)
					}
					if free {
						if !slices.Equal(flat, want) {
							t.Errorf("%s: the nodes emitted %d rows, want Reference's %d distinct once each", id, len(flat), len(want))
						}
					} else if flat = slices.Compact(flat); !slices.Equal(flat, want) {
						t.Errorf("%s: the nodes emitted %d distinct rows, want Reference's %d", id, len(flat), len(want))
					}
					saw[fmt.Sprintf("%s %s", name, p.Alg)] = saw[fmt.Sprintf("%s %s", name, p.Alg)] || free && len(want) > 0
					overLocal := p.Alg == plan.BroadcastJoin && p.Children[0].Alg == plan.LocalJoin && op.tr.Children[0].OutputRows >= op.tr.Children[1].OutputRows
					saw["⋈B over ⋈L"] = saw["⋈B over ⋈L"] || overLocal && homed && free && len(want) > 0
					saw["dead"] = saw["dead"] || dead >= 0 && free && len(want) > 0
					saw["delta"] = saw["delta"] || deltas > 0 && free && len(want) > 0
					saw["dedup"] = saw["dedup"] || !free && len(want) > 0
				}
			}
		}
	}
	for _, want := range []string{"hash-so scan", "hash-so ⋈L", "2f ⋈L", "2fb ⋈L", "un-1hop ⋈L", "un-1hop scan",
		"hash-so ⋈B", "2f ⋈B", "2fb ⋈B", "un-1hop ⋈B", "⋈B over ⋈L", "dead", "delta", "dedup"} {
		if !saw[want] {
			t.Errorf("no case exercised %q", want)
		}
	}
}

// TestDeterminismHomedBroadcast holds the served plans of L1–L10 at
// LUBM-1 on four nodes to Reference under all five methods, healthy and
// with node 1 dead under failover, and under hash-so and un-1hop also
// with every tenth triple written after the placement: the rows must be
// Reference's whether or not a broadcast was homed. Runs whose dead node
// held a triple no other node has are skipped, as they fail typed. The
// table must hold homed broadcasts under every method with a home.
func TestDeterminismHomedBroadcast(t *testing.T) {
	const nodes, dead = 4, 1
	ds := lubm.Generate(lubm.Config{Universities: 1, Seed: 1})
	ctx := context.Background()
	saw := map[string]bool{}
	for _, name := range []string{"hash-so", "2f", "2fb", "un-1hop", "path-bmc"} {
		m, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		withDelta := []bool{false}
		if name == "hash-so" || name == "un-1hop" {
			withDelta = append(withDelta, true)
		}
		for _, delta := range withDelta {
			base, written := ds.Triples, []rdf.Triple(nil)
			if delta {
				base = nil
				for i, tr := range ds.Triples {
					if i%10 == 9 {
						written = append(written, tr)
					} else {
						base = append(base, tr)
					}
				}
			}
			placement, err := m.Partition(&rdf.Dataset{Dict: ds.Dict, Triples: base}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			e := New(ds.Dict, placement)
			e.SetFailover(&FailoverPolicy{})
			e.ApplyIngest(written, nil)
			for _, qn := range lubm.QueryNames {
				q := lubm.Query(qn)
				ref, err := Reference(ds, q)
				if err != nil {
					t.Fatal(err)
				}
				want := canonRows(&Relation{Vars: ref.Vars, Rows: ref.Rows})
				p := optimizeFor(t, ds, q, m, opt.TDAuto).Plan
				for _, down := range []bool{false, true} {
					id := fmt.Sprintf("%s/delta=%v/down=%v/%s", name, delta, down, qn)
					fo := &failoverState{}
					if down {
						fo.markDead(dead, "scan")
					}
					res, err := e.ExecuteEnv(ctx, p, q, ExecEnv{Snap: e.Snapshot(), fo: fo})
					var ue *resilience.UnavailableError
					if errors.As(err, &ue) {
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if got := canonRows(&Relation{Vars: res.Vars, Rows: res.Rows}); !slices.Equal(got, want) {
						t.Errorf("%s: %d rows, want Reference's %d", id, len(got), len(want))
					}
					var walk func(tr *TraceNode)
					walk = func(tr *TraceNode) {
						saw[name] = saw[name] || tr.Homed
						saw["delta"] = saw["delta"] || tr.Homed && delta
						saw["down"] = saw["down"] || tr.Homed && down
						for _, c := range tr.Children {
							walk(c)
						}
					}
					walk(res.Trace)
				}
			}
		}
	}
	for _, what := range []string{"hash-so", "2f", "2fb", "un-1hop", "delta", "down"} {
		if !saw[what] {
			t.Errorf("no homed broadcast under %s", what)
		}
	}
	if saw["path-bmc"] {
		t.Error("a broadcast was homed under path-bmc, which has no home")
	}
}

// projectCols returns row's columns cols, in that order.
func projectCols(row []rdf.TermID, cols []int) []rdf.TermID {
	out := make([]rdf.TermID, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

// stepAll runs every node's root step in node order, as the stream
// does, and returns the nodes' outputs.
func stepAll(ctx context.Context, op *operator) ([]*Relation, error) {
	enum := &flatEnum{root: op}
	parts := make([]*Relation, op.tr.Nodes)
	for node := range parts {
		var err error
		if parts[node], err = enum.run(ctx, node); err != nil {
			return nil, err
		}
	}
	op.work.settle()
	return parts, nil
}
