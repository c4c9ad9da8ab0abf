package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"sparqlopt"
	"sparqlopt/internal/cost"
	"sparqlopt/internal/engine"
	"sparqlopt/internal/httpd"
	"sparqlopt/internal/opt"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/plan"
	"sparqlopt/internal/plancache"
	"sparqlopt/internal/querygraph"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/sparql"
	"sparqlopt/internal/stats"
)

// The traced replay runs in the driver process, one request at a time,
// so its times are uncontended service times: they explain shares, they
// are not the contended latencies of the run. Every distinct request is
// executed at four levels — a loopback HTTP request, ServeHTTP into a
// discarding writer, RunStream to exhaustion, and the layer functions
// one by one — and each level becomes a span under the level that
// encloses it (see span). The layer functions are composed the way
// System composes them, over a second engine, tracker and plan cache
// built from the same file with the workload's partitioning.

const (
	replayReps    = 5               // repetitions per request, budget permitting
	replayMaxReps = 50              // more of them while they are cheap ...
	replayMinTime = 2 * time.Second // ... until the replay has spanned the machine's bursts
	replayBatches = 200             // write batches replayed on ingest-mix
	// The replay's self-check. Children are clipped to their parents, so
	// layer_sum_ratio is 1 when every level's children fit inside it and
	// can only grow: ratioHi catches layers that, timed on their own, take
	// longer than the call that composes them. What the layers leave
	// uncovered lands in their parent's self time instead, so the other
	// side is a cap on the share of RunStream that no layer accounts for.
	ratioHi        = 1.15
	unattributedHi = 0.25
	spanWriteIDGap = 1 << 20 // request IDs of write spans start here
)

// operator spans by plan.Algorithm; they are detail under
// engine.execute and stay out of the layer sum, because sibling
// operators run concurrently and their own times can overlap.
var opSpan = map[plan.Algorithm]string{
	plan.Scan:            "engine.scan",
	plan.LocalJoin:       "engine.local_join",
	plan.BroadcastJoin:   "engine.broadcast_join",
	plan.RepartitionJoin: "engine.repartition_join",
}

func isOpSpan(s span) bool {
	for _, n := range opSpan {
		if s.Name == n {
			return true
		}
	}
	return false
}

// discardWriter is the ResponseWriter httpd.serve is timed against.
type discardWriter struct {
	h      http.Header
	n      int64
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Flush()                      {}

// perReq collects, for one span name, each request's values over reps.
type perReq map[int][]float64

// replayer holds the second copy of every layer.
type replayer struct {
	w       workloadDef
	method  partition.Method
	params  cost.Params
	loaded  *rdf.Dataset // hook-free: standalone layers and rdf.commit
	eng     *engine.Engine
	trk     *stats.Tracker
	cache   *plancache.Cache // nil on cold-plan
	sysData *rdf.Dataset     // the System's own dataset
	sys     *sparqlopt.System
	handler *httpd.Server
	lnAddr  string
	hc      *http.Client

	rec *recorder
	dur map[string]perReq
	cnt map[string]perReq // exact counts, body bytes and alloc deltas per request
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// build makes the replay's own copy of every layer, untimed: set-up
// times come from setupProbe, a fresh process, because this one's heap
// already holds the generated dataset.
func (r *replayer) build(path string) (err error) {
	if r.method, err = partition.ByName(r.w.partition); err != nil {
		return err
	}
	if r.loaded, err = readFile(path); err != nil {
		return err
	}
	placement, err := r.method.Partition(r.loaded, r.params.Nodes)
	if err != nil {
		return err
	}
	snap := r.loaded.Snapshot()
	r.eng = engine.New(r.loaded.Dict, placement)
	r.eng.SetData(snap)
	r.trk = stats.NewTracker(snap)
	r.cache = plancache.New(r.w.planCache)
	if r.sysData, err = readFile(path); err != nil {
		return err
	}
	r.sys, err = openSystem(r.sysData, r.method, r.params.Nodes, r.w.planCache)
	return err
}

// setupProbe times set-up one layer call at a time, the way Open
// composes them, and then Open itself. It runs in the child.
func setupProbe(cfg childConfig) (map[string]float64, error) {
	m := map[string]float64{}
	method, err := partition.ByName(cfg.Partition)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ds, err := readFile(cfg.Data)
	if err != nil {
		return nil, err
	}
	m["ntriples.read_s"] = since(t)
	t = time.Now()
	placement, err := method.Partition(ds, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	m["partition.partition_s"] = since(t)
	m["partition.replication_factor"] = placement.ReplicationFactor(ds.Len())
	snap := ds.Snapshot()
	t = time.Now()
	eng := engine.New(ds.Dict, placement)
	eng.SetData(snap)
	m["engine.build_s"] = since(t)
	t = time.Now()
	stats.NewTracker(snap)
	m["stats.tracker_build_s"] = since(t)
	// Let go of the standalone copies, so that Open is timed on the heap
	// the system under test has when it calls it.
	eng, placement = nil, nil
	runtime.GC()
	t = time.Now()
	sys, err := openSystem(ds, method, cfg.Nodes, cfg.PlanCache)
	if err != nil {
		return nil, err
	}
	m["sparqlopt.open_s"] = since(t)
	sys.Close()
	return m, nil
}

// aggregateTree is the shape of one replayed request: which span's call
// encloses which.
var aggregateTree = map[string][]string{
	"client.request": {"httpd.serve"},
	"httpd.serve":    {"system.run"},
	"system.run": {"sparql.parse", "plancache.hit", "stats.collect", "querygraph.build",
		"opt.enumerate", "engine.execute", "engine.flatten"},
	"plancache.hit":  {"querygraph.canonicalize"},
	"engine.execute": {"engine.scan", "engine.local_join", "engine.broadcast_join", "engine.repartition_join"},
}

// replay produces the per-layer metrics of one workload. setupS is the
// run's set-up time, which the set-up layers are subtracted from.
func (e *env) replay(ctx context.Context, w workloadDef, reqs []request, setupS float64) (map[string]float64, []span, []string, error) {
	cfg := childConfig{Data: e.data.Path, Partition: w.partition, Nodes: 10, PlanCache: w.planCache, SetupProbe: true}
	m, err := runProbe(ctx, e.self, cfg, e.outDir)
	if err != nil {
		return nil, nil, nil, err
	}
	m["setup.unattributed_s"] = setupS - m["ntriples.read_s"] - m["sparqlopt.open_s"]

	r := &replayer{w: w, params: cost.Default, rec: newRecorder(),
		dur: map[string]perReq{}, cnt: map[string]perReq{}}
	r.params.Nodes = cfg.Nodes
	if err := r.build(e.data.Path); err != nil {
		return nil, nil, nil, err
	}
	defer r.sys.Close()
	if !w.library {
		algo := sparqlopt.TDAuto // sparqld's default -algorithm
		r.handler = httpd.New(r.sys, httpd.Config{DefaultAlgorithm: &algo})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		srv := &http.Server{Handler: r.handler}
		served := make(chan struct{})
		go func() { srv.Serve(ln); close(served) }()
		defer func() { srv.Close(); <-served }()
		r.lnAddr = ln.Addr().String()
		r.hc = &http.Client{Transport: &http.Transport{DisableCompression: true}}
		defer r.hc.CloseIdleConnections()
	}

	// One untimed pass fills both plan caches, then timed repetitions
	// until the budget is spent (always at least one).
	weights := replayWeights(w, reqs)
	pass := func(rep int) error {
		for i := range reqs {
			if weights[i] == 0 {
				continue
			}
			if err := r.one(ctx, i, rep, &reqs[i]); err != nil {
				return fmt.Errorf("replay %s: %w", reqs[i].ID, err)
			}
		}
		return nil
	}
	if err := pass(-1); err != nil {
		return nil, nil, nil, err
	}
	began := time.Now()
	reps := 0
	for ; reps == 0 || time.Since(began) < e.window; reps++ {
		if reps >= replayMaxReps || (reps >= replayReps && time.Since(began) >= replayMinTime) {
			break
		}
		if err := pass(reps); err != nil {
			return nil, nil, nil, err
		}
	}
	notes := []string{fmt.Sprintf("replay: %d constants per kind x %d repetitions in %.1fs", replayInstances, reps, since(began))}

	// Reduce: per request the median over repetitions, across requests
	// the mean weighted by the request's share of the mix. Means add up
	// across layers; medians across unlike requests would not.
	wmean := func(p perReq) float64 {
		var sum float64
		for i, w := range weights { // in request order, so sums repeat exactly
			sum += w * median(p[i])
		}
		return sum
	}
	// The aggregate request: one span per name with the mean duration,
	// children placed inside their parents. Self times are taken here,
	// where noise has averaged out, not per repetition, where clipping
	// every negative remainder to 0 would bias them upwards.
	root := "client.request"
	if w.library {
		root = "system.run"
	}
	agg := newRecorder()
	var grow func(name string, id int)
	grow = func(name string, id int) {
		for _, child := range aggregateTree[name] {
			if d := int64(wmean(r.dur[child])); d > 0 {
				grow(child, agg.place(child, id, d))
			}
		}
	}
	grow(root, agg.add(root, -1, 0, -1, 0, int64(wmean(r.dur[root]))))
	self := map[string]float64{}
	var layerSum float64
	for id, ns := range selfTimes(agg.spans, isOpSpan) {
		self[agg.spans[id].Name] = float64(ns)
		layerSum += float64(ns)
	}
	m["replay.layer_sum_ratio"] = layerSum / float64(agg.spans[0].dur())
	m["system.unattributed_us"] = self["system.run"] / 1e3
	m["replay.unattributed_share"] = self["system.run"] / wmean(r.dur["system.run"])
	m["net.transfer_us"] = self["client.request"] / 1e3

	for _, name := range []string{"sparql.parse", "querygraph.canonicalize", "plancache.hit", "querygraph.build",
		"stats.collect", "opt.enumerate", "engine.execute", "engine.flatten", "engine.scan", "engine.local_join",
		"engine.broadcast_join", "engine.repartition_join", "system.run", "httpd.serve", "client.request"} {
		m[name+"_us"] = wmean(r.dur[name]) / 1e3
	}
	for name, key := range map[string]string{
		"joins": "opt.enumerated_joins", "scanned": "engine.scanned_triples", "joined": "engine.joined_rows",
		"shuffled": "engine.shuffled_bytes", "rows": "engine.result_rows", "flat": "engine.flat_rows",
		"engine.allocs": "engine.allocs_per_query", "engine.alloc_kb": "engine.alloc_kb_per_query",
		"system.allocs": "system.allocs_per_query", "system.alloc_kb": "system.alloc_kb_per_query",
	} {
		m[key] = wmean(r.cnt[name])
	}
	if rows := m["engine.result_rows"]; rows > 0 {
		m["engine.scanned_per_result_row"] = m["engine.scanned_triples"] / rows
		m["httpd.body_bytes_per_row"] = wmean(r.cnt["body"]) / rows
	}
	if plain := wmean(r.dur["system.run"]); plain > 0 {
		m["obs.trace_overhead_pct"] = 100 * (wmean(r.dur["system.run_traced"]) - plain) / plain
	}
	// Encoding cost per row, by format: ServeHTTP minus RunStream over
	// the rows of the requests that asked for that format.
	for format, key := range map[string]string{fmtJSON: "httpd.encode_json_ns_per_row", fmtTSV: "httpd.encode_tsv_ns_per_row"} {
		var ns, rows float64
		for i := range reqs {
			if reqs[i].Format == format {
				ns += weights[i] * (median(r.dur["httpd.serve"][i]) - median(r.dur["system.run"][i]))
				rows += weights[i] * float64(reqs[i].Want.Rows)
			}
		}
		if rows > 0 && ns > 0 {
			m[key] = ns / rows
		}
	}
	if w.library {
		r.replayWrites(e, m)
	}
	return m, append(r.rec.spans, agg.spans...), notes, nil
}

func (r *replayer) note(m map[string]perReq, name string, req int, v float64) {
	if m[name] == nil {
		m[name] = perReq{}
	}
	m[name][req] = append(m[name][req], v)
}

// timed runs f and returns how long it took, in nanoseconds.
func timed(f func() error) (int64, error) {
	t := time.Now()
	err := f()
	return int64(time.Since(t)), err
}

// one replays request i at every level. rep < 0 is the untimed
// cache-filling pass: it runs everything and records nothing.
func (r *replayer) one(ctx context.Context, i, rep int, req *request) error {
	keep := rep >= 0
	place := func(name string, parent int, ns int64) int {
		if !keep {
			return 0
		}
		r.note(r.dur, name, i, float64(ns))
		return r.rec.place(name, parent, ns)
	}
	root := func(name string, t0 time.Time, ns int64) int { // a span with its real timestamps
		if !keep {
			return 0
		}
		r.note(r.dur, name, i, float64(ns))
		return r.rec.add(name, i, rep, -1, t0.UnixNano(), t0.UnixNano()+ns)
	}

	// Level 0 and 1: the socket and the handler.
	runParent := -1
	if !r.w.library {
		u := "http://" + r.lnAddr + "/sparql?query=" + url.QueryEscape(req.Query)
		hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		hr.Header.Set("Accept", acceptHeader[req.Format])
		t0 := time.Now()
		ns, err := timed(func() error {
			resp, err := r.hc.Do(hr)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("loopback status %d", resp.StatusCode)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		if err != nil {
			return err
		}
		rootID := root("client.request", t0, ns)
		dw := &discardWriter{h: http.Header{}}
		if ns, err = timed(func() error { r.handler.ServeHTTP(dw, hr); return nil }); err != nil {
			return err
		}
		if dw.status != 0 && dw.status != http.StatusOK {
			return fmt.Errorf("ServeHTTP status %d", dw.status)
		}
		if keep {
			r.note(r.cnt, "body", i, float64(dw.n))
		}
		runParent = place("httpd.serve", rootID, ns)
	}

	// Level 2: the System facade, plain and with a trace sink.
	drain := func(opts ...sparqlopt.RunOption) func() error {
		return func() error {
			rows, err := r.sys.RunStream(ctx, req.Query, opts...)
			if err != nil {
				return err
			}
			for rows.Next() {
			}
			return rows.Close()
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	ns, err := timed(drain())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	var runID int
	if r.w.library {
		runID = root("system.run", t0, ns)
	} else {
		runID = place("system.run", runParent, ns)
	}
	if keep {
		r.note(r.cnt, "system.allocs", i, float64(ms1.Mallocs-ms0.Mallocs))
		r.note(r.cnt, "system.alloc_kb", i, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
	}
	t0 = time.Now()
	if ns, err = timed(drain(sparqlopt.WithTraceSink(func(*sparqlopt.Trace) {}))); err != nil {
		return err
	}
	root("system.run_traced", t0, ns)

	// Level 3: the layers, composed as System.stream composes them.
	var q *sparql.Query
	if ns, err = timed(func() (err error) { q, err = sparql.Parse(req.Query); return }); err != nil {
		return err
	}
	place("sparql.parse", runID, ns)
	snap := r.eng.Snapshot()
	data := snap.Data()
	collect := func(q *sparql.Query) (*stats.Stats, error) { return stats.CollectTracked(r.trk, data, q) }
	var views *querygraph.Views
	build := func() (err error) { views, err = querygraph.Build(q); return }
	optimize := func(ctx context.Context, q *sparql.Query, st *stats.Stats) (*opt.Result, error) {
		est, err := stats.NewEstimator(q, st)
		if err != nil {
			return nil, err
		}
		return opt.Optimize(ctx, &opt.Input{Query: q, Views: views, Est: est, Params: r.params, Method: r.method}, opt.TDAuto)
	}
	var res *opt.Result
	if r.cache != nil {
		var info plancache.Info
		hitNS, err := timed(func() (err error) {
			res, info, err = r.cache.Optimize(ctx, q, opt.TDAuto, data.Epoch(), collect,
				func(ctx context.Context, q *sparql.Query, st *stats.Stats) (*opt.Result, error) {
					if err := build(); err != nil {
						return nil, err
					}
					return optimize(ctx, q, st)
				}, nil)
			return
		})
		if err != nil {
			return err
		}
		if keep && !info.Hit {
			return fmt.Errorf("plan cache missed on a warmed shape")
		}
		canonNS, err := timed(func() error { _, err := querygraph.Canonicalize(q); return err })
		if err != nil {
			return err
		}
		place("querygraph.canonicalize", place("plancache.hit", runID, hitNS), canonNS)
		if keep {
			r.note(r.cnt, "joins", i, 0)
		}
	} else {
		var st *stats.Stats
		if ns, err = timed(func() (err error) { st, err = collect(q); return }); err != nil {
			return err
		}
		place("stats.collect", runID, ns)
		if ns, err = timed(build); err != nil {
			return err
		}
		place("querygraph.build", runID, ns)
		if ns, err = timed(func() (err error) { res, err = optimize(ctx, q, st); return }); err != nil {
			return err
		}
		place("opt.enumerate", runID, ns)
		if keep {
			r.note(r.cnt, "joins", i, float64(res.Counter.CMDs))
		}
	}

	runtime.ReadMemStats(&ms0)
	var stream *engine.Stream
	if ns, err = timed(func() (err error) {
		stream, err = r.eng.ExecuteStream(ctx, res.Plan, q, engine.ExecEnv{Snap: snap})
		return
	}); err != nil {
		return err
	}
	execID := place("engine.execute", runID, ns)
	if ns, err = timed(func() error {
		for {
			chunk, err := stream.NextChunk(ctx)
			if err != nil || chunk == nil {
				return err
			}
		}
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	place("engine.flatten", runID, ns)
	out := stream.Result()
	if out.RowCount() != req.Want.Rows {
		return fmt.Errorf("engine returned %d rows, oracle has %d", out.RowCount(), req.Want.Rows)
	}
	if keep {
		var ops [4]time.Duration
		var walk func(tr *engine.TraceNode)
		walk = func(tr *engine.TraceNode) {
			ops[tr.Alg] += tr.Elapsed
			for _, c := range tr.Children {
				walk(c)
			}
		}
		walk(out.Trace)
		for alg, name := range opSpan {
			place(name, execID, int64(ops[alg]))
		}
		r.note(r.cnt, "scanned", i, float64(out.Metrics.ScannedTriples))
		r.note(r.cnt, "joined", i, float64(out.Metrics.JoinedRows))
		r.note(r.cnt, "shuffled", i, float64(out.ShuffledBytes()))
		r.note(r.cnt, "rows", i, float64(out.RowCount()))
		r.note(r.cnt, "flat", i, float64(out.FlatRowCount()))
		r.note(r.cnt, "engine.allocs", i, float64(ms1.Mallocs-ms0.Mallocs))
		r.note(r.cnt, "engine.alloc_kb", i, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
	}
	return nil
}

// replayWrites times the write path batch by batch: the commit alone
// on the hook-free dataset, then the engine's and the tracker's applies
// on their own, then the same batch through the System's dataset, whose
// commit hook does all three.
func (r *replayer) replayWrites(e *env, m map[string]float64) {
	var commit, ingest, track, unattr []float64
	for i := 0; i < replayBatches; i++ {
		terms := makeBatch(e.seed, i, e.data.Scale)
		enc := encodeBatch(r.loaded.Dict, terms)
		sysEnc := encodeBatch(r.sysData.Dict, terms)

		cNS, _ := timed(func() error { r.loaded.AddBatch(enc); return nil })
		snap := r.loaded.Snapshot()
		iNS, _ := timed(func() error { r.eng.ApplyIngest(enc, snap); return nil })
		tNS, _ := timed(func() error { r.trk.Apply(enc, snap.Epoch()); return nil })
		t0 := time.Now()
		wNS, _ := timed(func() error { r.sysData.AddBatch(sysEnc); return nil })

		id := r.rec.add("system.write", spanWriteIDGap+i, 0, -1, t0.UnixNano(), t0.UnixNano()+wNS)
		r.rec.place("rdf.commit", id, cNS)
		r.rec.place("engine.apply_ingest", id, iNS)
		r.rec.place("stats.tracker_apply", id, tNS)
		commit = append(commit, float64(cNS)/1e3)
		ingest = append(ingest, float64(iNS)/1e3)
		track = append(track, float64(tNS)/1e3)
		rest := wNS - cNS - iNS - tNS
		if rest < 0 {
			rest = 0
		}
		unattr = append(unattr, float64(rest)/1e3)
	}
	m["rdf.commit_us"] = median(commit)
	m["engine.apply_ingest_us"] = median(ingest)
	m["engine.apply_ingest_p95_us"] = percentile(sortedCopy(ingest), 95)
	m["stats.tracker_apply_us"] = median(track)
	m["system.write_unattributed_us"] = median(unattr)
	m["engine.delta_len"] = float64(r.eng.Snapshot().DeltaLen())
}
