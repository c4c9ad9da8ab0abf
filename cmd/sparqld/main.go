// Command sparqld serves a partitioned RDF dataset over the SPARQL 1.1
// protocol. Responses stream row by row off the library's RunStream
// cursor, so result sets larger than the per-query memory budget are
// served with bounded resident memory.
//
// Usage:
//
//	sparqld -data data.nt [flags]
//	sparqld -demo [flags]            # built-in LUBM dataset
//
//	-addr       listen address (default :8089)
//	-data       N-Triples file to load
//	-demo       generate a LUBM dataset instead of loading -data
//	-universities  with -demo: LUBM scale (default 2)
//	-partition  hash-so | 2f | 2fb | path-bmc | un-1hop (default hash-so)
//	-nodes      simulated cluster size (default 10)
//	-algorithm  default optimization algorithm for requests that do not
//	            send ?algorithm=: td-cmd | td-cmdp | hgr-td-cmd |
//	            td-auto | greedy (default td-auto)
//	-plancache  plan-cache capacity in query fingerprints (0 = disabled)
//	-max-concurrent / -max-queued  admission control; overflow is
//	            rejected with 503 and a Retry-After hint
//	-mem-budget per-query memory budget in bytes (0 = unlimited);
//	            streamed responses stay within it regardless of result
//	            size, budget trips surface as 507
//	-timeout    default per-request deadline (0 = none)
//	-max-timeout  cap on the client-requested ?timeout= (0 = no cap)
//	-limit      default row limit for requests without ?limit= (0 = none)
//	-max-limit  cap on the client-requested ?limit= (0 = no cap)
//	-slowlog    slow-query threshold feeding /debug/slowlog (0 with
//	            -debug logs every query)
//	-failover   node fault domains: per-node health breakers, retries
//	            with backoff, replica failover for dead nodes' scans;
//	            unreplicated dead fragments fail fast as 503 with
//	            Retry-After, /healthz reports per-node breaker state,
//	            and sustained failure triggers recovery re-replication
//	-debug      expose /debug/slowlog and /debug/trace
//
// Endpoints: /sparql (protocol), /metrics, /healthz, and with -debug
// /debug/slowlog and /debug/trace. SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sparqlopt"
	"sparqlopt/internal/httpd"
	"sparqlopt/internal/ntriples"
	"sparqlopt/internal/partition"
	"sparqlopt/internal/rdf"
	"sparqlopt/internal/workload/lubm"
)

func main() {
	var (
		addr         = flag.String("addr", ":8089", "listen address")
		dataPath     = flag.String("data", "", "N-Triples file")
		demo         = flag.Bool("demo", false, "generate a LUBM dataset instead of loading -data")
		universities = flag.Int("universities", 2, "with -demo: LUBM scale")
		partName     = flag.String("partition", "hash-so", "data partitioning method")
		nodes        = flag.Int("nodes", 10, "simulated cluster size")
		algorithm    = flag.String("algorithm", "td-auto", "default optimization algorithm")
		planCache    = flag.Int("plancache", 0, "plan cache capacity in query fingerprints (0 = disabled)")
		maxConc      = flag.Int("max-concurrent", 0, "admission control: max concurrently served queries (0 = unlimited)")
		maxQueued    = flag.Int("max-queued", 0, "admission control: max queries queued for a slot")
		memBudget    = flag.Int64("mem-budget", 0, "per-query memory budget in bytes (0 = unlimited)")
		timeout      = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "cap on the client-requested timeout (0 = no cap)")
		limit        = flag.Int64("limit", 0, "default row limit (0 = none)")
		maxLimit     = flag.Int64("max-limit", 0, "cap on the client-requested limit (0 = no cap)")
		slowlog      = flag.Duration("slowlog", 0, "slow-query threshold for /debug/slowlog")
		failover     = flag.Bool("failover", false, "enable node health tracking and replica failover")
		debug        = flag.Bool("debug", false, "expose /debug/slowlog and /debug/trace")
	)
	flag.Parse()
	if err := run(serveConfig{
		addr: *addr, dataPath: *dataPath, demo: *demo, universities: *universities,
		partName: *partName, nodes: *nodes, algorithm: *algorithm, planCache: *planCache,
		maxConcurrent: *maxConc, maxQueued: *maxQueued, memBudget: *memBudget,
		timeout: *timeout, maxTimeout: *maxTimeout, limit: *limit, maxLimit: *maxLimit,
		slowlog: *slowlog, failover: *failover, debug: *debug,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	addr, dataPath, partName, algorithm string
	demo                                bool
	universities, nodes                 int
	planCache                           int
	maxConcurrent, maxQueued            int
	memBudget                           int64
	timeout, maxTimeout                 time.Duration
	limit, maxLimit                     int64
	slowlog                             time.Duration
	failover                            bool
	debug                               bool
}

func run(cfg serveConfig) error {
	ds, err := loadDataset(cfg)
	if err != nil {
		return err
	}
	method, err := partition.ByName(cfg.partName)
	if err != nil {
		return err
	}
	algo, ok := sparqlopt.AlgorithmByName(cfg.algorithm)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", cfg.algorithm)
	}

	opts := []sparqlopt.Option{
		sparqlopt.WithMethod(method),
		sparqlopt.WithNodes(cfg.nodes),
	}
	if cfg.planCache > 0 {
		opts = append(opts, sparqlopt.WithPlanCache(cfg.planCache))
	}
	if cfg.maxConcurrent > 0 {
		opts = append(opts, sparqlopt.WithAdmissionControl(cfg.maxConcurrent, cfg.maxQueued))
	}
	if cfg.memBudget > 0 {
		opts = append(opts, sparqlopt.WithMemoryBudget(cfg.memBudget, 0))
	}
	if cfg.failover {
		opts = append(opts, sparqlopt.WithNodeFailover(sparqlopt.NodeFailoverConfig{}))
	}
	// The daemon always carries the metrics registry — /metrics is an
	// endpoint, not an option; the slow-query log feeds /debug/slowlog.
	var obsOpts []sparqlopt.ObsOption
	if cfg.debug || cfg.slowlog > 0 {
		obsOpts = append(obsOpts, sparqlopt.WithSlowQueryLog(256, cfg.slowlog))
	}
	opts = append(opts, sparqlopt.WithObservability(obsOpts...))

	fmt.Printf("partitioning %d triples with %s onto %d nodes...\n", ds.Len(), method.Name(), cfg.nodes)
	sys, err := sparqlopt.Open(ds, opts...)
	if err != nil {
		return err
	}
	defer sys.Close()

	handler := httpd.New(sys, httpd.Config{
		DefaultTimeout:   cfg.timeout,
		MaxTimeout:       cfg.maxTimeout,
		DefaultLimit:     cfg.limit,
		MaxLimit:         cfg.maxLimit,
		DefaultAlgorithm: &algo,
		Debug:            cfg.debug,
	})
	srv := &http.Server{Addr: cfg.addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving SPARQL on %s (algorithm %s, replication factor %.2f)\n",
		cfg.addr, cfg.algorithm, sys.ReplicationFactor())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func loadDataset(cfg serveConfig) (*rdf.Dataset, error) {
	if cfg.demo {
		fmt.Printf("generating LUBM dataset (%d universities)...\n", cfg.universities)
		return lubm.Generate(lubm.Config{Universities: cfg.universities, Seed: 1, Compact: true}), nil
	}
	if cfg.dataPath == "" {
		return nil, fmt.Errorf("need -data or -demo")
	}
	f, err := os.Open(cfg.dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntriples.Read(f)
}
