package main

// metricDef names one reported metric and its unit, in the order the
// benchmark prints it; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, measured on every workload.
// Which operation the latency and throughput metrics time depends on
// the workload; README.md gives the mapping.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"success_rate", "fraction"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"gallery.copy_gbps", "GB/s"},
	{"gallery.dots_f64_gbps", "GB/s"},
	{"gallery.dots_f64_ns_per_sf", "ns"},
	{"gallery.dots_f64_batch_gmacs", "GMAC/s"},
	{"shard.topk.calls", "count"},
	{"shard.topk.ms_p50", "ms"},
	{"shard.topk.ms_p95", "ms"},
	{"shard.topk.gbps", "GB/s"},
	{"shard.probes_per_scan", "count"},
	{"shard.queryall.ms_p50", "ms"},
	{"shard.queryall.gmacs", "GMAC/s"},
	{"serve.handler.ms_p50", "ms"},
	{"serve.handler.ms_p95", "ms"},
	{"serve.self.ms_p50", "ms"},
	{"serve.engine_share", "fraction"},
	{"serve.status.2xx", "count"},
	{"serve.status.4xx", "count"},
	{"serve.status.503", "count"},
	{"serve.status.504", "count"},
	{"serve.status.5xx_other", "count"},
	{"serve.shed_frac", "fraction"},
	{"live.topk.ms_p50", "ms"},
	{"live.topk.ms_p95_compacting", "ms"},
	{"live.enroll.ms_p50", "ms"},
	{"live.enroll.ms_p95", "ms"},
	{"live.wal_bytes_per_enroll", "B"},
	{"live.compactions", "count"},
	{"live.compact.ms_p50", "ms"},
	{"live.mem_records.max", "count"},
	{"replicate.bootstrap_s", "s"},
	{"replicate.seq_lag.p95", "count"},
	{"replicate.seq_lag.max", "count"},
	{"replicate.topk.ms_p50", "ms"},
	{"router.hop.ms_p50", "ms"},
	{"router.hop.ms_p95", "ms"},
	{"router.reads_to_replica_frac", "fraction"},
	{"gen.attempted", "count"},
	{"gen.failed", "count"},
	{"gen.wrong_answers", "count"},
	{"gen.error_rate", "fraction"},
	{"gen.late.ms_p95", "ms"},
	{"gen.enroll.ms_p50", "ms"},
	{"gen.enroll.ms_p95", "ms"},
	{"gen.replica_visible.ms_p50", "ms"},
	{"gen.replica_visible.ms_p95", "ms"},
	{"go.gc.cycles", "count"},
	{"go.gc.pause_ms_total", "ms"},
	{"trace.overhead_frac", "fraction"},
}
