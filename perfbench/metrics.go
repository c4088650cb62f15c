package main

// metricDecl names one printed metric and its unit. BENCHMARK.json at the
// repository root declares the same lists; TestMetricsMatchBenchmarkJSON
// keeps the two in step.
type metricDecl struct {
	name, unit string
}

// endToEnd is what an untraced run prints. Every workload reports every
// metric; README.md gives each one's meaning per workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer is what a traced run prints. A layer a workload does not run
// reports 0.
var perLayer = []metricDecl{
	{"error_rate", "frac"},
	{"dataset.load_s", "s"},
	{"dataset.load_mb_per_s", "MB/s"},
	{"solver.iterations", "count"},
	{"solver.kernel_evals", "count"},
	{"solver.ns_per_iter", "ns"},
	{"cache.hit_rate", "frac"},
	{"cache.evictions", "count"},
	{"smo.shrink_events", "count"},
	{"smo.reconstructions", "count"},
	{"core.shrink_events", "count"},
	{"core.reconstructions", "count"},
	{"core.mean_active_frac", "frac"},
	{"core.final_active_frac", "frac"},
	{"mpi.sent_bytes", "B"},
	{"mpi.sent_bytes_per_iter", "B"},
	{"mpi.p2_efficiency", "ratio"},
	{"kernel.row_ns", "ns"},
	{"kernel.lambda_ns", "ns"},
	{"prof.kernel_share", "frac"},
	{"prof.sparse_share", "frac"},
	{"prof.exp_share", "frac"},
	{"prof.smo_share", "frac"},
	{"prof.core_share", "frac"},
	{"prof.mpi_share", "frac"},
	{"prof.cache_share", "frac"},
	{"prof.model_share", "frac"},
	{"prof.serve_share", "frac"},
	{"prof.json_share", "frac"},
	{"prof.gc_share", "frac"},
	{"oracle.verify_s", "s"},
	{"oracle.rel_gap", "ratio"},
	{"oracle.max_kkt_violation", "1"},
	{"model.num_sv", "count"},
	{"model.bytes", "B"},
	{"model.save_s", "s"},
	{"model.predict_rows_per_s", "rows/s"},
	{"serve.shed_frac", "frac"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.exec_us_per_row", "us"},
	{"serve.coalesced_batch_mean", "rows"},
	{"serve.p99_ms", "ms"},
	{"serve.single_p99_ms", "ms"},
	{"serve.direct_batch_p99_ms", "ms"},
	{"serve.reload_s", "s"},
	{"serve.p99_during_reload_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_frac", "frac"},
	{"trace.self_sum_over_wall", "ratio"},
	{"perfmodel.modeled_over_wall", "ratio"},
	{"perfmodel.modeled_over_wall_p1", "ratio"},
}
