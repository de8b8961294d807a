package main

// endToEndUnits gives each end-to-end metric its unit.
var endToEndUnits = map[string]string{
	"build_ms_p50": "ms",
	"builds_per_s": "1/s",
	"heap_mib":     "MiB",
	"store_mib":    "MiB",
	"setup_s":      "s",
}

// endToEnd renders values as the end-to-end metric set.
func endToEnd(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(endToEndUnits))
	for name, unit := range endToEndUnits {
		out[name] = metric{values[name], unit}
	}
	return out
}

// perLayer lists the traced run's per-layer metrics, in the order
// BENCHMARK.json declares them. A workload that never reaches a layer
// reports 0 for it.
var perLayer = []struct{ name, unit, better string }{
	{"cas.open_ms", "ms", "lower"},
	{"cas.open_journal_bytes", "bytes", "lower"},
	{"cas.open_blobs_checked", "count", "lower"},
	{"cas.gc_ms", "ms", "lower"},
	{"cas.gc_swept_bytes_per_build", "bytes", "lower"},
	{"cas.blob_write_bytes_per_build", "bytes", "lower"},
	{"cas.journal_appends_per_build", "count", "lower"},
	{"cas.blob_read_bytes_per_build", "bytes", "lower"},
	{"cas.flock_wait_ms", "ms", "lower"},
	{"cas.retries", "count", "lower"},
	{"image.seed_ms", "ms", "lower"},
	{"image.flatten_fills_per_build", "count", "lower"},
	{"image.rehydrates_per_build", "count", "lower"},
	{"image.rehydrate_ms", "ms", "lower"},
	{"tarutil.pack_us_per_layer", "us", "lower"},
	{"tarutil.unpack_us_per_layer", "us", "lower"},
	{"tarutil.layer_bytes_per_build", "bytes", "lower"},
	{"build.build_ms_self", "ms", "lower"},
	{"build.stage_ms_self", "ms", "lower"},
	{"build.executed_per_build", "count", "lower"},
	{"build.replayed_per_build", "count", "higher"},
	{"build.cache_hit_ratio", "ratio", "higher"},
	{"build.instr_ms_hit", "ms", "lower"},
	{"build.instr_ms_miss", "ms", "lower"},
	{"core.generate_us", "us", "lower"},
	{"core.filter_insns", "count", "lower"},
	{"dockerfile.parse_us", "us", "lower"},
	{"simos.syscalls_per_build", "count", "lower"},
	{"rootemu.faked_per_build", "count", "lower"},
	{"rootemu.filtered_per_build", "count", "lower"},
	{"rootemu.vns_per_build", "vns", "lower"},
	{"daemon.post_ms", "ms", "lower"},
	{"daemon.queue_wait_ms", "ms", "lower"},
	{"daemon.run_ms", "ms", "lower"},
	{"daemon.poll_lag_ms", "ms", "lower"},
	{"daemon.rejected", "count", "lower"},
	{"daemon.generator_lag_ms_p99", "ms", "lower"},
	{"daemon.busy_ratio", "ratio", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"trace.coverage_ratio", "ratio", "higher"},
	{"stationarity.p50_drift_ratio", "ratio", "lower"},
	{"stationarity.store_growth_bytes", "bytes", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"host.build_ms_p50_raw", "ms", "lower"},
}

// layerMetrics renders values as the per-layer metric set: every
// declared metric, 0 where values has none. A value under an undeclared
// name is a bug in the caller.
func layerMetrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic("chbench: undeclared per-layer metric " + name)
		}
	}
	return out
}
