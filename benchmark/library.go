package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"sparqlopt"
	"sparqlopt/internal/ntriples"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

// The library workload's system under test is a child of the driver:
// the same binary, re-exec'd with -child <config>, that loads the
// dataset file, opens a System and drives it through the public API.
// It prints READY once Open has returned (the driver times set-up from
// process start to that line) and writes its measurements to a file.

const (
	// batchTriples and batchEvery pace the writer: one batch of 32
	// triples every 10 ms.
	batchTriples = 32
	batchEvery   = 10 * time.Millisecond
	ingestNS     = "http://www.ingest.example/"
)

type childConfig struct {
	Data       string    `json:"data"`
	Partition  string    `json:"partition"`
	Nodes      int       `json:"nodes"`
	PlanCache  int       `json:"plan_cache"`
	SetupOnly  bool      `json:"setup_only"`
	SetupProbe bool      `json:"setup_probe"`
	Reads      []request `json:"reads"`
	Schedule   []int     `json:"schedule"`
	Seed       int64     `json:"seed"`
	Scale      int       `json:"scale"`
	WarmupS    float64   `json:"warmup_s"`
	WindowS    float64   `json:"window_s"`
	ResultPath string    `json:"result_path"`
}

type childResult struct {
	RSSAfterSetupMB float64                 `json:"rss_after_setup_mb"`
	Pre             []answer                `json:"pre"`  // per read, before any write
	Post            []answer                `json:"post"` // per read, after FlushWrites
	Samples         []sample                `json:"samples"`
	WriteMS         []float64               `json:"write_ms"`
	LagMS           []float64               `json:"lag_ms"`
	Batches         int                     `json:"batches"`
	Flushed         bool                    `json:"flushed"`
	CPUUserS        []float64               `json:"cpu_user_s"` // at the window's start and after each whole second
	CPUSysS         []float64               `json:"cpu_sys_s"`
	PeakRSSMB       float64                 `json:"peak_rss_mb"`
	CacheBefore     sparqlopt.CacheCounters `json:"cache_before"`
	CacheAfter      sparqlopt.CacheCounters `json:"cache_after"`
}

// makeBatch returns the i-th write batch as term strings. It is a pure
// function of (seed, i), so the driver can rebuild exactly what the
// child wrote. Three batches in four use predicates no read shape
// mentions (their commits must leave cached plans alone); every fourth
// adds ub:worksFor and ub:subOrganizationOf edges into existing
// departments, which L1 and L2 read.
func makeBatch(seed int64, i, scale int) [][3]string {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	const depts = 15 // the generator's minimum per university
	out := make([][3]string, batchTriples)
	for j := range out {
		id := fmt.Sprintf("%d_%d", i, j)
		if i%4 != 0 {
			p := []string{"emailAddress", "telephone", "researchInterest"}[j%3]
			out[j] = [3]string{ingestNS + "person" + id, lubm.UB + p, `"v` + id + `"`}
			continue
		}
		dept := fmt.Sprintf("http://www.Department%d.University%d.edu", rng.Intn(depts), rng.Intn(scale))
		if j%2 == 0 {
			out[j] = [3]string{ingestNS + "prof" + id, lubm.UB + "worksFor", dept}
		} else {
			out[j] = [3]string{ingestNS + "group" + id, lubm.UB + "subOrganizationOf", dept}
		}
	}
	return out
}

func encodeBatch(dict *rdf.Dict, b [][3]string) []rdf.Triple {
	out := make([]rdf.Triple, len(b))
	for i, t := range b {
		out[i] = rdf.Triple{S: dict.Intern(t[0]), P: dict.Intern(t[1]), O: dict.Intern(t[2])}
	}
	return out
}

func readFile(path string) (*rdf.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntriples.Read(f)
}

// openSystem opens a System the way the library workload's caller
// does, which is also what sparqld's flags come to.
func openSystem(ds *rdf.Dataset, method partition.Method, nodes, planCache int) (*sparqlopt.System, error) {
	return sparqlopt.Open(ds, sparqlopt.WithMethod(method), sparqlopt.WithNodes(nodes),
		sparqlopt.WithPlanCache(planCache), sparqlopt.WithObservability())
}

// readOnce runs one read through RunStream to exhaustion. With digest
// set it also digests the rows in the request's column order.
func readOnce(ctx context.Context, sys *sparqlopt.System, r *request, digest bool) (first, total time.Duration, a answer, err error) {
	start := time.Now()
	rows, err := sys.RunStream(ctx, r.Query)
	if err != nil {
		return 0, 0, answer{}, err
	}
	defer rows.Close()
	var d digester
	var col []int
	var raw, terms []string
	if digest {
		got := rows.Vars()
		if err := sameVars(got, r.Vars); err != nil {
			return 0, 0, answer{}, err
		}
		col = make([]int, len(r.Vars))
		for i, v := range r.Vars {
			for j, g := range got {
				if g == v {
					col[i] = j
				}
			}
		}
		raw, terms = make([]string, len(got)), make([]string, len(got))
	}
	for rows.Next() {
		if d.rows == 0 {
			first = time.Since(start)
		}
		if digest {
			if err := rows.Scan(raw); err != nil {
				return 0, 0, answer{}, err
			}
			for i, j := range col {
				terms[i] = raw[j]
			}
			d.addRow(terms)
		} else {
			d.rows++
		}
	}
	total = time.Since(start)
	if d.rows == 0 {
		first = total
	}
	return first, total, d.answer(), rows.Err()
}

// childMain is the library system under test.
func childMain(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg childConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return err
	}
	if cfg.SetupProbe {
		m, err := setupProbe(cfg)
		if err != nil {
			return err
		}
		out, err := json.Marshal(m)
		if err != nil {
			return err
		}
		return os.WriteFile(cfg.ResultPath, out, 0o644)
	}
	method, err := partition.ByName(cfg.Partition)
	if err != nil {
		return err
	}
	ds, err := readFile(cfg.Data)
	if err != nil {
		return err
	}
	sys, err := openSystem(ds, method, cfg.Nodes, cfg.PlanCache)
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("READY")
	if cfg.SetupOnly {
		return nil
	}
	ctx := context.Background()
	pid := os.Getpid()
	var res childResult
	res.RSSAfterSetupMB, _, _ = procMemMB(pid)

	digestAll := func() ([]answer, error) {
		out := make([]answer, len(cfg.Reads))
		for i := range cfg.Reads {
			_, _, a, err := readOnce(ctx, sys, &cfg.Reads[i], true)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.Reads[i].ID, err)
			}
			out[i] = a
		}
		return out, nil
	}
	if res.Pre, err = digestAll(); err != nil {
		return err
	}

	// Warm-up: reads only, so the plan cache holds every shape before
	// the writer starts invalidating.
	warmEnd := time.Now().Add(time.Duration(cfg.WarmupS * float64(time.Second)))
	for i := 0; time.Now().Before(warmEnd); i++ {
		if _, _, _, err := readOnce(ctx, sys, &cfg.Reads[cfg.Schedule[i%len(cfg.Schedule)]], false); err != nil {
			return err
		}
	}

	window := time.Duration(cfg.WindowS * float64(time.Second))
	batches := make([][]rdf.Triple, int(window/batchEvery)+1)
	for i := range batches {
		batches[i] = encodeBatch(ds.Dict, makeBatch(cfg.Seed, i, cfg.Scale))
	}

	res.CacheBefore = sys.CacheStats()
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	wg.Add(3)
	var readErr error
	go func() { // the sampler: own CPU at the start and after each whole second
		defer wg.Done()
		for i := 0; i <= int(window/time.Second); i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			u, s, _ := procCPU(pid)
			res.CPUUserS, res.CPUSysS = append(res.CPUUserS, u), append(res.CPUSysS, s)
			_, res.PeakRSSMB, _ = procMemMB(pid)
		}
	}()
	go func() { // the reader: closed loop
		defer wg.Done()
		for i := 0; ; i++ {
			t0 := time.Now()
			if !t0.Before(end) {
				return
			}
			req := cfg.Schedule[i%len(cfg.Schedule)]
			first, total, a, err := readOnce(ctx, sys, &cfg.Reads[req], false)
			if err != nil {
				readErr = err
				return
			}
			res.Samples = append(res.Samples, sample{Req: req, StartS: t0.Sub(start).Seconds(),
				FirstMS: float64(first) / 1e6, TotalMS: float64(total) / 1e6, Rows: a.Rows,
				OK: true, InWindow: !t0.Add(total).After(end)})
		}
	}()
	go func() { // the writer: one batch every batchEvery, timed from when it was due
		defer wg.Done()
		for i := range batches {
			due := start.Add(time.Duration(i) * batchEvery)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			t0 := time.Now()
			ds.AddBatch(batches[i])
			res.WriteMS = append(res.WriteMS, float64(time.Since(t0))/1e6)
			res.LagMS = append(res.LagMS, float64(t0.Sub(due))/1e6)
			res.Batches++
		}
	}()
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	res.CacheAfter = sys.CacheStats()

	res.Flushed = sys.FlushWrites()
	if res.Post, err = digestAll(); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.ResultPath, out, 0o644)
}

// runChild re-execs this binary as a child with cfg, waits for it to
// end and returns what it wrote to its result file, with the time from
// process start to its READY line (0 if it printed none).
func runChild(ctx context.Context, self string, cfg childConfig, dir string) (readyS float64, result []byte, err error) {
	cfgPath := dir + "/child-config.json"
	cfg.ResultPath = dir + "/child-result.json"
	data, err := json.Marshal(cfg)
	if err != nil {
		return 0, nil, err
	}
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		return 0, nil, err
	}
	os.Remove(cfg.ResultPath)
	cmd := exec.CommandContext(ctx, self, "-child", cfgPath)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if sc.Text() == "READY" && readyS == 0 {
			readyS = time.Since(start).Seconds()
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("benchmark child: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if cfg.SetupOnly {
		return readyS, nil, nil
	}
	result, err = os.ReadFile(cfg.ResultPath)
	return readyS, result, err
}

// runLibraryChild runs the library system under test and returns its
// set-up time and, unless cfg.SetupOnly, its measurements.
func runLibraryChild(ctx context.Context, self string, cfg childConfig, dir string) (setupS float64, res *childResult, err error) {
	setupS, out, err := runChild(ctx, self, cfg, dir)
	if err != nil {
		return 0, nil, err
	}
	if setupS == 0 {
		return 0, nil, fmt.Errorf("library child exited without READY")
	}
	if cfg.SetupOnly {
		return setupS, nil, nil
	}
	res = &childResult{}
	return setupS, res, json.Unmarshal(out, res)
}

// runProbe runs setupProbe in a fresh child.
func runProbe(ctx context.Context, self string, cfg childConfig, dir string) (map[string]float64, error) {
	_, out, err := runChild(ctx, self, cfg, dir)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	return m, json.Unmarshal(out, &m)
}
