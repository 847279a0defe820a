package controller

import (
	"io"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// WritePrometheus renders the controller's operational counters, fault
// telemetry, and cycle-phase latency histograms in the Prometheus text
// exposition format. It implements trace.MetricsSource, so a Global plugs
// into trace.StartDebug directly via DebugServer.AddMetrics.
func (g *Global) WritePrometheus(w io.Writer) error { return g.WritePrometheusLabeled(w) }

// WritePrometheusLabeled is WritePrometheus with extra label pairs (key,
// value, ...) on every series, so the leaders of several shards can share one
// /metrics page: sdsctl serve labels each with shard="<i>".
func (g *Global) WritePrometheusLabeled(w io.Writer, labels ...string) error {
	labels = append([]string{"controller", "global"}, labels...)
	if err := promStats(w, labels, g.Stats()); err != nil {
		return err
	}
	if err := telemetry.PromFaults(w, "sdscale_controller_fault", g.faults, labels...); err != nil {
		return err
	}
	return promRecorder(w, labels, g.recorder)
}

// WritePrometheus renders the aggregator's counters and histograms; see
// (*Global).WritePrometheus.
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	labels := []string{"controller", "aggregator"}
	if err := promStats(w, labels, a.Stats()); err != nil {
		return err
	}
	return telemetry.PromFaults(w, "sdscale_controller_fault", a.faults, labels...)
}

func promStats(w io.Writer, labels []string, st ControllerStats) error {
	gauges := []struct {
		name  string
		value float64
	}{
		{"sdscale_controller_children", float64(st.Children)},
		{"sdscale_controller_stages", float64(st.Stages)},
		{"sdscale_controller_peers", float64(st.Peers)},
		{"sdscale_controller_quarantined", float64(st.Quarantined)},
		{"sdscale_controller_epoch", float64(st.Epoch)},
		{"sdscale_controller_collect_in_flight", float64(st.Pipeline.CollectInFlight)},
		{"sdscale_controller_collect_in_flight_peak", float64(st.Pipeline.CollectInFlightPeak)},
		{"sdscale_controller_enforce_in_flight", float64(st.Pipeline.EnforceInFlight)},
		{"sdscale_controller_enforce_in_flight_peak", float64(st.Pipeline.EnforceInFlightPeak)},
		{"sdscale_controller_cycle_allocs_last", float64(st.Pipeline.LastCycleAllocs)},
		{"sdscale_controller_cycle_allocs_mean", st.Pipeline.MeanCycleAllocs},
	}
	for _, g := range gauges {
		if err := telemetry.PromGauge(w, g.name, g.value, labels...); err != nil {
			return err
		}
	}
	counters := []struct {
		name  string
		value uint64
	}{
		{"sdscale_controller_call_errors_total", st.CallErrors},
		{"sdscale_controller_evictions_total", st.Evictions},
		{"sdscale_controller_fenced_calls_total", st.FencedCalls},
	}
	for _, c := range counters {
		if err := telemetry.PromCounter(w, c.name, c.value, labels...); err != nil {
			return err
		}
	}
	if st.Store != nil {
		s := st.Store
		storeGauges := []struct {
			name  string
			value float64
		}{
			{"sdscale_store_log_bytes", float64(s.LogBytes)},
			{"sdscale_store_log_records", float64(s.LogRecords)},
			{"sdscale_store_pending_bytes", float64(s.PendingBytes)},
			{"sdscale_store_snapshot_age_seconds", s.SnapshotAge.Seconds()},
			{"sdscale_store_fsync_last_seconds", s.FsyncLast.Seconds()},
			{"sdscale_store_fsync_mean_seconds", s.FsyncMean.Seconds()},
			{"sdscale_store_fsync_max_seconds", s.FsyncMax.Seconds()},
			{"sdscale_store_replay_seconds", s.Replay.Duration.Seconds()},
		}
		for _, g := range storeGauges {
			if err := telemetry.PromGauge(w, g.name, g.value, labels...); err != nil {
				return err
			}
		}
		storeCounters := []struct {
			name  string
			value uint64
		}{
			{"sdscale_store_appended_records_total", s.AppendedRecords},
			{"sdscale_store_fsyncs_total", s.Fsyncs},
			{"sdscale_store_snapshots_total", s.Snapshots},
			{"sdscale_store_replay_records_total", s.Replay.Records},
			{"sdscale_store_replay_skipped_total", s.Replay.Skipped},
			{"sdscale_store_replay_truncated_bytes_total", uint64(s.Replay.TruncatedBytes)},
		}
		for _, c := range storeCounters {
			if err := telemetry.PromCounter(w, c.name, c.value, labels...); err != nil {
				return err
			}
		}
	}
	return nil
}

func promRecorder(w io.Writer, labels []string, r *telemetry.CycleRecorder) error {
	for _, p := range []telemetry.Phase{telemetry.PhaseCollect, telemetry.PhaseCompute, telemetry.PhaseEnforce, telemetry.PhaseTotal} {
		h := r.Phase(p)
		if h.Count() == 0 {
			continue
		}
		if err := telemetry.PromHistogram(w, "sdscale_controller_cycle_phase", h,
			append(labels, "phase", p.String())...); err != nil {
			return err
		}
	}
	return nil
}
