package main

// layerMetric names one per-layer metric of a traced run. BENCHMARK.json
// lists the same names and units.
type layerMetric struct {
	name, unit string
}

// perLayerMetrics is every metric a traced run reports, on every
// workload; a layer that does no work in a workload reports 0.
var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"experiments.fig4_s", "s"},
		{"experiments.fig5_s", "s"},
		{"experiments.table4_s", "s"},
		{"experiments.table5_s", "s"},
		{"core.cache_hits", "count"},
		{"core.cache_entries", "count"},
		{"core.est.simulation_s", "s"},
		{"core.est.markov_s", "s"},
		{"core.est.petrinet_s", "s"},
		{"core.pool_busy_frac", "frac"},
		{"petri.compile_us", "us"},
		{"petri.ns_per_firing", "ns"},
		{"cpu.ns_per_job", "ns"},
		{"field.simulate_s", "s"},
		{"field.ns_per_job", "ns"},
		{"field.validate_ms", "ms"},
		{"field.jobs", "count"},
		{"field.delivered", "count"},
		{"field.deaths", "count"},
		{"field.dropped", "count"},
		{"petri.open_session_us", "us"},
	}
	for _, kind := range []string{"handler_us_p50", "handler_us_p99", "rtt_us_p50", "rtt_us_p99"} {
		for _, ep := range endpoints {
			ms = append(ms, layerMetric{"sweepd." + kind + "." + ep, "us"})
		}
	}
	for _, ep := range endpoints {
		ms = append(ms, layerMetric{"sweepd.requests_per_sweep." + ep, "count"})
	}
	ms = append(ms,
		layerMetric{"sweepd.idle_polls_per_sweep", "count"},
		layerMetric{"sweepd.bytes_per_scen", "B"},
		layerMetric{"core.remote_cache_hit_frac", "frac"},
		layerMetric{"sweepd.requeues", "count"},
		layerMetric{"sweepd.expiries", "count"},
		layerMetric{"go.alloc_mb", "MB"},
		layerMetric{"go.gc_cycles", "count"},
	)
	for _, l := range traceLayers {
		ms = append(ms, layerMetric{"self_s." + l, "s"})
	}
	return append(ms, layerMetric{"trace.overhead_frac", "frac"})
}()
