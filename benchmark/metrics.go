package main

// schemaVersion names the report layout and the meaning of every metric;
// reports with different versions are not comparable.
const schemaVersion = 1

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with no
// benchmark spans (--trace 0). The bounds come from the measured
// run-to-run spread on the shared 2-vCPU box (README, "Bounds"), not
// from what one would like them to be: every timing moved by 4-22 %
// between ten runs of one commit, so each gets the widest bound the
// driver allows, and a change under 25 % needs interleaved pairs.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p95_ms", "ms", lower, 0.25},
	{"first_byte_p50_ms", "ms", lower, 0.25},
	{"throughput_qps", "1/s", higher, 0.25},
	{"cpu_ms_per_query", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayer are the metrics of single layers (--trace 1): the traced
// replay's times and counts, and the run-side counters marked (run).
var perLayer = func() []metricDef {
	m := []metricDef{
		// Set-up, by the call that does the work.
		{Name: "ntriples.read_s", Unit: "s", Better: lower},
		{Name: "partition.partition_s", Unit: "s", Better: lower},
		{Name: "partition.replication_factor", Unit: "ratio", Better: lower},
		{Name: "engine.build_s", Unit: "s", Better: lower},
		{Name: "stats.tracker_build_s", Unit: "s", Better: lower},
		{Name: "sparqlopt.open_s", Unit: "s", Better: lower},
		{Name: "setup.unattributed_s", Unit: "s", Better: lower},
		{Name: "proc.rss_after_setup_mb", Unit: "MB", Better: lower}, // (run)
		// Fixed per-request serving overhead.
		{Name: "sparql.parse_us", Unit: "us", Better: lower},
		{Name: "querygraph.canonicalize_us", Unit: "us", Better: lower},
		{Name: "plancache.hit_us", Unit: "us", Better: lower},
		// Planning from scratch (the paper's Table IV side).
		{Name: "querygraph.build_us", Unit: "us", Better: lower},
		{Name: "stats.collect_us", Unit: "us", Better: lower},
		{Name: "opt.enumerate_us", Unit: "us", Better: lower},
		{Name: "opt.enumerated_joins", Unit: "count", Better: lower},
		// Execution (Table V side).
		{Name: "engine.execute_us", Unit: "us", Better: lower},
		{Name: "engine.scan_us", Unit: "us", Better: lower},
		{Name: "engine.local_join_us", Unit: "us", Better: lower},
		{Name: "engine.broadcast_join_us", Unit: "us", Better: lower},
		{Name: "engine.repartition_join_us", Unit: "us", Better: lower},
		{Name: "engine.scanned_triples", Unit: "count", Better: lower},
		{Name: "engine.joined_rows", Unit: "count", Better: lower},
		{Name: "engine.shuffled_bytes", Unit: "B", Better: lower},
		{Name: "engine.scanned_per_result_row", Unit: "ratio", Better: lower},
		{Name: "engine.allocs_per_query", Unit: "count", Better: lower},
		{Name: "engine.alloc_kb_per_query", Unit: "KB", Better: lower},
		{Name: "engine.flatten_us", Unit: "us", Better: lower},
		{Name: "engine.result_rows", Unit: "count", Better: higher},
		{Name: "engine.flat_rows", Unit: "count", Better: lower},
		// The System facade around the layers above.
		{Name: "system.run_us", Unit: "us", Better: lower},
		{Name: "system.unattributed_us", Unit: "us", Better: lower},
		{Name: "system.allocs_per_query", Unit: "count", Better: lower},
		{Name: "system.alloc_kb_per_query", Unit: "KB", Better: lower},
		{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
		// HTTP and the socket.
		{Name: "httpd.serve_us", Unit: "us", Better: lower},
		{Name: "httpd.encode_json_ns_per_row", Unit: "ns/row", Better: lower},
		{Name: "httpd.encode_tsv_ns_per_row", Unit: "ns/row", Better: lower},
		{Name: "httpd.body_bytes_per_row", Unit: "B/row", Better: lower},
		{Name: "net.transfer_us", Unit: "us", Better: lower},
		{Name: "client.request_us", Unit: "us", Better: lower},
		{Name: "replay.layer_sum_ratio", Unit: "ratio", Better: lower},
		{Name: "replay.unattributed_share", Unit: "ratio", Better: lower},
		// Plan cache over the window (run).
		{Name: "plancache.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "plancache.invalidations", Unit: "count", Better: lower},
		{Name: "plancache.retained", Unit: "count", Better: higher},
		// Write path (ingest-mix).
		{Name: "rdf.commit_us", Unit: "us", Better: lower},
		{Name: "stats.tracker_apply_us", Unit: "us", Better: lower},
		{Name: "engine.apply_ingest_us", Unit: "us", Better: lower},
		{Name: "engine.apply_ingest_p95_us", Unit: "us", Better: lower},
		{Name: "engine.delta_len", Unit: "count", Better: lower},
		{Name: "system.write_unattributed_us", Unit: "us", Better: lower},
		{Name: "writer.lag_p95_ms", Unit: "ms", Better: lower},  // (run)
		{Name: "writer.batches", Unit: "count", Better: higher}, // (run)
		// Demoted from end-to-end: 0 on a healthy run (failed_share) or
		// on three of four workloads (write_p50_ms), and the driver needs
		// end-to-end metrics that are never 0. Failures still gate every
		// run through the result line's "failed" and "correct".
		{Name: "failed_share", Unit: "ratio", Better: lower},
		{Name: "write_p50_ms", Unit: "ms", Better: lower},
		// Client side of the run, informational (run).
		{Name: "proc.cpu_user_s", Unit: "s", Better: lower},
		{Name: "proc.cpu_sys_s", Unit: "s", Better: lower},
		{Name: "client.requests", Unit: "count", Better: higher},
		{Name: "client.midmean_qps", Unit: "1/s", Better: higher},
		{Name: "proc.midmean_cpu_ms_per_query", Unit: "ms", Better: lower},
		{Name: "client.latency_p99_ms", Unit: "ms", Better: lower},
		{Name: "client.body_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "client.rows_per_s", Unit: "1/s", Better: higher},
	}
	for _, k := range kindNames {
		m = append(m, metricDef{Name: "client.kind." + k + ".p50_ms", Unit: "ms", Better: lower})
	}
	return m
}()
