package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"
)

// env is what every run of one invocation shares.
type env struct {
	root       string // the repository checkout
	outDir     string // benchmark/out
	sparqld    string // the built server binary
	self       string // this binary, for the library child
	data       *dataset
	golden     *goldenFile
	goldenPath string
	seed       int64
	window     time.Duration
	warmup     time.Duration
	setups     int  // set-ups per run; setup_s is their median
	conns      int  // closed-loop clients
	useRef     bool // answers from sparqlopt.Reference (-write-golden)
	log        io.Writer
	// Set by prepare for the workload being run: where its answers came
	// from, and whether that was the golden file.
	source     string
	fromGolden bool
}

// windowResult is what one run of a workload measured, before it is
// reduced to metrics.
type windowResult struct {
	reqs     []request
	setups   []float64
	samples  []sample
	windowS  float64
	cpuUser  []float64 // SUT CPU seconds used so far, at the window's start and after each whole second
	cpuSys   []float64
	rssSetup float64 // VmRSS once set-up finished, MB
	peakRSS  float64 // VmHWM when the window closed, MB
	cacheHit float64 // plan-cache deltas over the window
	cacheMis float64
	cacheInv float64
	cacheRet float64
	writeMS  []float64
	lagMS    []float64
	batches  int
	verified int      // full-body verifications attempted
	failures []string // every wrong answer, bad status or transport error
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// answersFor picks the oracle for a workload's requests: the checked-in
// golden answers when they were made for this seed and this dataset,
// else sparqlopt.Reference at run time (always when writing them).
func (e *env) answersFor(w workloadDef) (answerOf func(string) ([]string, answer, error), source string, golden bool) {
	ref := func(src string) ([]string, answer, error) { return referenceAnswer(e.data.ds, src) }
	if e.useRef {
		return ref, "sparqlopt.Reference", false
	}
	if why := e.golden.usable(e.data, e.seed); why != "" {
		return ref, "sparqlopt.Reference at run time (" + why + ")", false
	}
	g := e.golden.Workloads[w.name]
	return func(src string) ([]string, answer, error) {
		for _, r := range g {
			if r.Query == src {
				return r.Vars, r.Want, nil
			}
		}
		return nil, answer{}, fmt.Errorf("golden file has no answer for %q", src)
	}, "golden " + e.golden.path, true
}

// prepare builds a workload's requests and schedule.
func (e *env) prepare(w workloadDef) ([]request, []int, error) {
	answerOf, source, golden := e.answersFor(w)
	reqs, err := buildRequests(w, e.data.ds, e.seed, answerOf)
	if err != nil && golden {
		// The sampled constants no longer match the golden file's.
		source, golden = "sparqlopt.Reference at run time ("+err.Error()+")", false
		reqs, err = buildRequests(w, e.data.ds, e.seed, func(src string) ([]string, answer, error) { return referenceAnswer(e.data.ds, src) })
	}
	if err != nil {
		return nil, nil, err
	}
	e.source, e.fromGolden = source, golden
	e.logf("oracle: %s; %d distinct requests", source, len(reqs))
	return reqs, buildSchedule(w, reqs, e.seed), nil
}

// runHTTP measures one workload against the real sparqld over a
// loopback socket.
func (e *env) runHTTP(ctx context.Context, w workloadDef, reqs []request, sched []int, setups int) (*windowResult, error) {
	wr := &windowResult{reqs: reqs, windowS: e.window.Seconds()}
	args := sparqldArgs(w, e.data.Path)
	logPath := filepath.Join(e.outDir, "sparqld-"+w.name+".log")
	// Extra set-ups first, so setup_s is a median and not one draw.
	for i := 1; i < setups; i++ {
		s, err := startServer(ctx, e.sparqld, args, logPath)
		if err != nil {
			return nil, err
		}
		wr.setups = append(wr.setups, s.setupS)
		s.stop()
	}
	srv, err := startServer(ctx, e.sparqld, args, logPath)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	wr.setups = append(wr.setups, srv.setupS)
	pid := srv.cmd.Process.Pid
	wr.rssSetup, _, _ = procMemMB(pid)

	c := newHTTPClient(srv.addr, reqs, e.conns)
	defer c.close()
	// Warm-up: every distinct request once, body fully parsed and
	// compared with the oracle; then the schedule itself, so the plan
	// cache and the heap are in their steady state when timing starts.
	for i := range reqs {
		wr.verified++
		if err := c.verify(i); err != nil {
			wr.failures = append(wr.failures, err.Error())
			continue
		}
		if !e.fromGolden {
			continue
		}
		if g := e.golden.bodyLen(w.name, reqs[i].ID); g > 0 && g != reqs[i].BodyLen {
			wr.failures = append(wr.failures, fmt.Sprintf("%s: body of %d bytes, golden has %d", reqs[i].ID, reqs[i].BodyLen, g))
		}
	}
	if len(wr.failures) > 0 {
		return wr, nil // wrong answers: nothing worth timing
	}
	c.closedLoop(e.conns, sched, e.warmup, nil)

	names := []string{"plancache_hits", "plancache_misses", "plancache_invalidations", "plancache_retained"}
	before, err := srv.scrape(names...)
	if err != nil {
		return nil, err
	}
	var tickErr error
	wr.samples = c.closedLoop(e.conns, sched, e.window, func() {
		u, s, err := procCPU(pid)
		if err != nil {
			tickErr = err
		}
		wr.cpuUser, wr.cpuSys = append(wr.cpuUser, u), append(wr.cpuSys, s)
		_, wr.peakRSS, _ = procMemMB(pid)
	})
	if tickErr != nil {
		return nil, tickErr
	}
	after, err := srv.scrape(names...)
	if err != nil {
		return nil, err
	}
	wr.cacheHit = after["plancache_hits"] - before["plancache_hits"]
	wr.cacheMis = after["plancache_misses"] - before["plancache_misses"]
	wr.cacheInv = after["plancache_invalidations"] - before["plancache_invalidations"]
	wr.cacheRet = after["plancache_retained"] - before["plancache_retained"]
	for _, s := range wr.samples {
		if !s.OK {
			wr.failures = append(wr.failures, reqs[s.Req].ID+": "+s.FailCause)
		}
	}
	return wr, nil
}

// runLibrary measures the library workload in the re-exec'd child.
func (e *env) runLibrary(ctx context.Context, w workloadDef, reqs []request, sched []int, setups int) (*windowResult, error) {
	wr := &windowResult{reqs: reqs, windowS: e.window.Seconds()}
	cfg := childConfig{Data: e.data.Path, Partition: w.partition, Nodes: 10, PlanCache: w.planCache,
		Seed: e.seed, Scale: e.data.Scale, SetupOnly: true}
	for i := 1; i < setups; i++ {
		s, _, err := runLibraryChild(ctx, e.self, cfg, e.outDir)
		if err != nil {
			return nil, err
		}
		wr.setups = append(wr.setups, s)
	}
	cfg.SetupOnly = false
	cfg.Reads, cfg.Schedule = reqs, sched
	cfg.WarmupS, cfg.WindowS = e.warmup.Seconds(), e.window.Seconds()
	s, res, err := runLibraryChild(ctx, e.self, cfg, e.outDir)
	if err != nil {
		return nil, err
	}
	wr.setups = append(wr.setups, s)
	wr.samples = res.Samples
	wr.cpuUser, wr.cpuSys = res.CPUUserS, res.CPUSysS
	wr.rssSetup, wr.peakRSS = res.RSSAfterSetupMB, res.PeakRSSMB
	wr.cacheHit = float64(res.CacheAfter.Hits - res.CacheBefore.Hits)
	wr.cacheMis = float64(res.CacheAfter.Misses - res.CacheBefore.Misses)
	wr.cacheInv = float64(res.CacheAfter.Invalidations - res.CacheBefore.Invalidations)
	wr.cacheRet = float64(res.CacheAfter.Retained - res.CacheBefore.Retained)
	wr.writeMS, wr.lagMS, wr.batches = res.WriteMS, res.LagMS, res.Batches

	// Before any write, every read must equal the oracle's answer.
	for i, r := range reqs {
		wr.verified++
		if res.Pre[i] != r.Want {
			wr.failures = append(wr.failures, fmt.Sprintf("%s before the window: got %+v, want %+v", r.ID, res.Pre[i], r.Want))
		}
	}
	// After FlushWrites, every read must equal Reference on the dataset
	// with exactly the written batches added: the file read afresh, so
	// that no run's writes reach the next run's oracle.
	if !res.Flushed {
		wr.failures = append(wr.failures, "FlushWrites left committed writes unapplied")
	}
	final, err := readFile(e.data.Path)
	if err != nil {
		return nil, err
	}
	for i := 0; i < res.Batches; i++ {
		final.AddBatch(encodeBatch(final.Dict, makeBatch(e.seed, i, e.data.Scale)))
	}
	for i, r := range reqs {
		wr.verified++
		_, want, err := referenceAnswer(final, r.Query)
		if err != nil {
			return nil, err
		}
		if res.Post[i] != want {
			wr.failures = append(wr.failures, fmt.Sprintf("%s after the window: got %+v, want %+v", r.ID, res.Post[i], want))
		}
	}
	// BGP results only grow under insert-only writes, so a read inside
	// the window has between its pre- and post-window row counts.
	for _, s := range wr.samples {
		if s.Rows < res.Pre[s.Req].Rows || s.Rows > res.Post[s.Req].Rows {
			wr.failures = append(wr.failures, fmt.Sprintf("%s in the window: %d rows, outside [%d, %d]",
				reqs[s.Req].ID, s.Rows, res.Pre[s.Req].Rows, res.Post[s.Req].Rows))
		}
	}
	return wr, nil
}

// perSecond splits the measured span of a run, from the window's start
// to its last whole second (the whole window when --seconds is whole),
// into seconds: the correct requests that completed in each and the
// CPU the system under test used in each.
func perSecond(wr *windowResult) (completed, cpuS []float64) {
	completed, cpuS = make([]float64, len(wr.cpuUser)-1), make([]float64, len(wr.cpuUser)-1)
	for _, s := range wr.samples {
		if sec := int(s.StartS + s.TotalMS/1e3); s.OK && sec < len(completed) {
			completed[sec]++
		}
	}
	for i := range cpuS {
		cpuS[i] = wr.cpuUser[i+1] - wr.cpuUser[i] + wr.cpuSys[i+1] - wr.cpuSys[i]
	}
	return completed, cpuS
}

func sum(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndMetrics reduces a run to the metrics a user would see.
// Latencies are percentiles over every request started in the window;
// throughput is the correct requests completed in the measured span over
// its length, CPU per query the CPU the system under test used in it
// over the same requests. Both are plain totals, so a stall of any
// length counts in full.
func endToEndMetrics(wr *windowResult) map[string]float64 {
	var total, first []float64
	for _, s := range wr.samples {
		if s.OK {
			total = append(total, s.TotalMS)
			first = append(first, s.FirstMS)
		}
	}
	sort.Float64s(total)
	sort.Float64s(first)
	completed, cpuS := perSecond(wr)
	m := map[string]float64{
		"setup_s":           median(wr.setups),
		"latency_p50_ms":    percentile(total, 50),
		"latency_p95_ms":    percentile(total, 95),
		"first_byte_p50_ms": percentile(first, 50),
		"throughput_qps":    sum(completed) / float64(len(completed)),
		"peak_rss_mb":       wr.peakRSS,
	}
	if n := sum(completed); n > 0 {
		m["cpu_ms_per_query"] = 1000 * sum(cpuS) / n
	}
	return m
}

// runSideMetrics are the per-layer metrics that come from the run
// itself rather than from the replay.
func runSideMetrics(w workloadDef, wr *windowResult) map[string]float64 {
	m := map[string]float64{
		"proc.rss_after_setup_mb": wr.rssSetup,
		"proc.cpu_user_s":         wr.cpuUser[len(wr.cpuUser)-1] - wr.cpuUser[0],
		"proc.cpu_sys_s":          wr.cpuSys[len(wr.cpuSys)-1] - wr.cpuSys[0],
		"plancache.invalidations": wr.cacheInv,
		"plancache.retained":      wr.cacheRet,
		"writer.batches":          float64(wr.batches),
		"write_p50_ms":            median(wr.writeMS),
		"writer.lag_p95_ms":       percentile(sortedCopy(wr.lagMS), 95),
	}
	if wr.cacheHit+wr.cacheMis > 0 {
		m["plancache.hit_ratio"] = wr.cacheHit / (wr.cacheHit + wr.cacheMis)
	}
	// The same two rates as the end-to-end ones, but as the middle half
	// of the window's seconds: next to the plain totals they tell a slow
	// program (both move) from stalls in a few seconds (only the totals).
	completed, cpuS := perSecond(wr)
	var cpuPerQuery []float64
	for i, n := range completed {
		if n > 0 {
			cpuPerQuery = append(cpuPerQuery, 1000*cpuS[i]/n)
		}
	}
	m["client.midmean_qps"] = midMean(completed)
	m["proc.midmean_cpu_ms_per_query"] = midMean(cpuPerQuery)
	var total []float64
	byKind := map[string][]float64{}
	var bytes, rows float64
	for _, s := range wr.samples {
		if !s.OK {
			continue
		}
		total = append(total, s.TotalMS)
		r := wr.reqs[s.Req]
		byKind[r.Kind] = append(byKind[r.Kind], s.TotalMS)
		if s.InWindow {
			bytes += float64(s.Bytes)
			if w.library {
				rows += float64(s.Rows)
			} else {
				rows += float64(r.Want.Rows)
			}
		}
	}
	sort.Float64s(total)
	m["client.requests"] = float64(len(wr.samples))
	if samplesBeyond(len(total), 99) >= minBeyond {
		m["client.latency_p99_ms"] = percentile(total, 99)
	}
	m["client.body_mb_per_s"] = bytes / 1e6 / wr.windowS
	m["client.rows_per_s"] = rows / wr.windowS
	for k, xs := range byKind {
		m["client.kind."+k+".p50_ms"] = median(xs)
	}
	attempted := wr.verified + len(wr.samples) + wr.batches
	if attempted > 0 {
		m["failed_share"] = float64(len(wr.failures)) / float64(attempted)
	}
	return m
}

// measuredOwners reports which kind each percentile fell in on this
// run, ranking kinds by their measured median latency.
func measuredOwners(w workloadDef, wr *windowResult, ps ...float64) []owner {
	byKind := map[string][]float64{}
	for _, s := range wr.samples {
		if s.OK {
			k := wr.reqs[s.Req].Kind
			byKind[k] = append(byKind[k], s.TotalMS)
		}
	}
	mix := append([]mixEntry(nil), w.mix...)
	sort.SliceStable(mix, func(i, j int) bool { return median(byKind[mix[i].kind]) < median(byKind[mix[j].kind]) })
	return ownersOf(mix, ps...)
}
