package main

// The metric catalogue: names and units exactly as BENCHMARK.json lists
// them (bench_test.go holds the two together). End-to-end metrics come from
// the measured pass and are gated; per-layer metrics come from the traced
// pass and are not.

type entry struct{ name, unit string }

var endToEnd = []entry{
	{"cycle_p50_ms", "ms"},
	{"children_per_s", "1/s"},
	{"cpu_ms_per_cycle", "ms"},
	{"net_bytes_per_cycle", "B"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []entry{
	{"wire.encode_collect_reply_ns", "ns"},
	{"wire.decode_collect_reply_ns", "ns"},
	{"wire.encode_enforce_ns", "ns"},
	{"wire.decode_enforce_ns", "ns"},
	{"wire.encode_report_delta_ns", "ns"},
	{"wire.decode_report_delta_ns", "ns"},
	{"wire.collect_reply_bytes", "B"},
	{"wire.enforce_bytes", "B"},
	{"wire.report_delta_bytes", "B"},

	{"rpc.call_rtt_ns", "ns"},
	{"rpc.allocs_per_call", "count"},
	{"rpc.pipelined_call_ns", "ns"},
	{"rpc.shared_send_ns", "ns"},
	{"rpc.tcp_pipelined_call_ns", "ns"},

	{"transport.simnet_rtt_ns", "ns"},
	{"transport.tcpnet_rtt_ns", "ns"},
	{"transport.global_tx_bytes_per_cycle", "B"},
	{"transport.global_rx_bytes_per_cycle", "B"},
	{"transport.agg_tx_bytes_per_cycle", "B"},

	{"stage.collect_service_ns", "ns"},
	{"stage.enforce_service_ns", "ns"},
	{"stage.push_delta_ns", "ns"},
	{"stage.collects_per_cycle", "count"},
	{"stage.enforces_per_cycle", "count"},

	{"controller.collect_p50_ms", "ms"},
	{"controller.compute_p50_ms", "ms"},
	{"controller.enforce_p50_ms", "ms"},
	{"controller.cycle_p95_ms", "ms"},
	{"controller.cycle_samples", "count"},
	{"controller.halves_ratio", "ratio"},
	{"controller.agg_busy_p50_ms", "ms"},
	{"controller.allocs_per_cycle", "count"},
	{"controller.alloc_bytes_per_cycle", "B"},
	{"controller.gc_per_100_cycles", "count"},
	{"controller.shared_sends_per_encode", "ratio"},
	{"controller.reply_reuse_ratio", "ratio"},
	{"controller.inflight_peak", "count"},
	{"controller.compute_workers", "count"},
	{"controller.arena_grows_per_cycle", "count"},
	{"controller.dirty_per_cycle", "count"},
	{"controller.dirty_miss_cycles", "count"},
	{"controller.suppressed_collect_ratio", "ratio"},
	{"controller.suppressed_enforce_ratio", "ratio"},

	{"metrics.aggregate_ns_per_report", "ns"},
	{"controlalg.psfa_allocate_ns", "ns"},
	{"cyclemem.slab_take_ns", "ns"},
	{"cyclemem.ruletable_seal_ns_per_rule", "ns"},
	{"store.append_rules_ns", "ns"},
	{"store.sync_ms", "ms"},

	{"ledger.explained_pct", "%"},
	{"ledger.unexplained_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, e := range endToEnd {
		m[e.name] = e.unit
	}
	for _, e := range perLayer {
		m[e.name] = e.unit
	}
	return m
}()

func endToEndNames() []string { return entryNames(endToEnd) }
func layerNames() []string    { return entryNames(perLayer) }

func entryNames(es []entry) []string {
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name
	}
	return names
}
