package main

// The metric vocabulary, in the order BENCHMARK.json lists it. Every
// run reports every name of its mode; a per-layer metric of a layer
// the workload does not exercise reads 0.

// e2eMetrics are the end-to-end metrics (-trace 0).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"docs_per_s", "doc/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// coreStages are the program's delta-trace stage names reported as
// core.span.<stage>_ms.
var coreStages = []string{"extract", "featurize", "supervise", "merge", "mirror", "hydrateDelta", "deltaClassify", "materializeKB"}

// layerMetrics are the per-layer metrics (-trace 1).
var layerMetrics = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"parser.parse_ms_per_doc", "ms"},
		{"candidates.extract_ms_per_doc", "ms"},
		{"candidates.cands_per_doc", "count"},
		{"features.featurize_ms_per_cand", "ms"},
		{"features.cache_hit_rate", "ratio"},
		{"labeling.apply_ms", "ms"},
		{"labeling.fit_ms", "ms"},
		{"labeling.metrics_ms", "ms"},
		{"model.train_ms", "ms"},
		{"model.ms_per_epoch", "ms"},
		{"model.alloc_mb", "MB"},
		{"core.ingest_writer_ms", "ms"},
	}
	for _, st := range coreStages {
		m = append(m, struct{ name, unit string }{"core.span." + st + "_ms", "ms"})
	}
	return append(m, []struct{ name, unit string }{
		{"core.lf_edit_ms", "ms"},
		{"core.resident_docs_peak", "count"},
		{"kbase.page_cache_hit_rate", "ratio"},
		{"kbase.page_misses_per_iter", "count"},
		{"kbase.pages", "count"},
		{"kbase.spill_bytes", "bytes"},
		{"kbase.pagewhere_us", "us"},
		{"kbase.index_hit_rate", "ratio"},
		{"serve.read_handler_us", "us"},
		{"serve.ingest_overhead_ms", "ms"},
		{"serve.response_bytes_per_read", "bytes"},
		{"go.gc_cpu_fraction", "ratio"},
		{"go.alloc_mb_per_op", "MB"},
		{"bench.gen_late_ms", "ms"},
		{"bench.trace_overhead_pct", "%"},
	}...)
}()

// fillAbsentLayers reports 0 for every per-layer metric the workload
// did not set: that layer is not on the workload's path.
func fillAbsentLayers(r *report) {
	for _, m := range layerMetrics {
		if _, ok := r.layers[m.name]; !ok {
			r.setLayer(m.name, 0, m.unit)
		}
	}
}
