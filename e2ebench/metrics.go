package main

// endToEnd are the figures a user of gph-server sees, printed by an
// untraced run on every workload; BENCHMARK.json bounds each.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"read_qps", "1/s"},
	{"index_mb", "MB"},
}

// perLayer are the traced run's figures. A layer a workload does not
// exercise reads 0 there (README.md says which layer moves on which
// workload). The kNN, write and failure figures sit here, unbounded,
// because not every workload has them, and so does peak_rss_mb: at 1M
// vectors the server's peak resident set (set by the index build)
// lands near 550 or near 700 MB from run to run.
var perLayer = []struct{ name, unit string }{
	{"http.handler_us", "us"}, {"http.wire_us", "us"}, {"http.codec_us", "us"},
	{"plan.route_index", "count"}, {"plan.route_scan", "count"}, {"plan.calibrated", "bool"},
	{"plan.estimate_us", "us"}, {"plan.scan_ns_per_row", "ns"}, {"plan.route_us", "us"}, {"plan.calibrate_ms", "ms"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"}, {"cache.hit_us", "us"},
	{"gph.alloc_us", "us"}, {"gph.alloc_p99_us", "us"}, {"gph.search_us", "us"}, {"gph.search_p99_us", "us"},
	{"gph.alloc_share", "ratio"}, {"gph.probe_us", "us"}, {"gph.verify_us", "us"},
	{"gph.signatures", "count"}, {"gph.sum_postings", "count"}, {"gph.candidates", "count"},
	{"gph.results", "count"}, {"gph.alpha", "ratio"},
	{"verify.scan_ns_per_row", "ns"}, {"verify.scan_us", "us"},
	{"knn.grow_us", "us"}, {"knn.grow_p99_us", "us"}, {"knn.radii", "count"}, {"knn.candidates", "count"},
	{"open.ms", "ms"}, {"mmap.minor_faults", "count"}, {"mmap.major_faults", "count"},
	{"server.cpu_s", "s"}, {"loadgen.cpu_s", "s"},
	{"shard.search_us", "us"}, {"shard.search_p99_us", "us"}, {"shard.insert_us", "us"},
	{"shard.insert_p99_us", "us"}, {"shard.delete_us", "us"}, {"shard.delete_p99_us", "us"},
	{"shard.compactions", "count"}, {"shard.compact_ms", "ms"}, {"shard.delta_peak", "count"},
	{"wal.bytes_per_update", "B"}, {"loadgen.lag_p99_ms", "ms"},
	{"build.s", "s"}, {"build.partition_s", "s"}, {"build.postings_s", "s"}, {"build.estimator_s", "s"},
	{"trace.reconcile_gap", "ratio"}, {"trace.overhead", "ratio"},
	{"knn_p50_ms", "ms"}, {"knn_p99_ms", "ms"}, {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
	{"failed_ratio", "ratio"}, {"search_samples", "count"}, {"knn_samples", "count"}, {"write_samples", "count"},
	{"peak_rss_mb", "MB"},
}

// finalize keeps exactly the run's metric set, in its declared units:
// missing ones read 0, and figures outside it are printed as text only.
func (r *result) finalize(traced bool) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := make(map[string]metric, len(set))
	for _, m := range set {
		out[m.name] = metric{Value: r.Metrics[m.name].Value, Unit: m.unit}
		delete(r.Metrics, m.name)
	}
	r.extra, r.Metrics = r.Metrics, out
}
