package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// WritePrometheus renders the tracer's cumulative totals and span-derived
// histograms (per-phase latency quantiles, call/server breakdowns, slowest
// children) in Prometheus text format. The histograms are computed from the
// ring snapshot at scrape time — the hot path pays nothing for them.
func (t *Tracer) WritePrometheus(w io.Writer, name string) error {
	if t == nil {
		return nil
	}
	labels := []string{"tracer", name}
	tot := t.Totals()
	counters := []struct {
		metric string
		value  uint64
	}{
		{"sdscale_trace_cycles_total", tot.Cycles},
		{"sdscale_trace_client_calls_total", tot.ClientCalls},
		{"sdscale_trace_client_sampled_total", tot.ClientSampled},
		{"sdscale_trace_client_errors_total", tot.ClientErrors},
		{"sdscale_trace_abandoned_calls_total", tot.Abandoned},
		{"sdscale_trace_server_calls_total", tot.ServerCalls},
		{"sdscale_trace_server_sampled_total", tot.ServerSampled},
	}
	for _, c := range counters {
		if err := telemetry.PromCounter(w, c.metric, c.value, labels...); err != nil {
			return err
		}
	}
	gauges := []struct {
		metric string
		value  float64
	}{
		{"sdscale_trace_client_busy_seconds_total", tot.ClientDur.Seconds()},
		{"sdscale_trace_client_marshal_seconds_total", tot.ClientMarshal.Seconds()},
		{"sdscale_trace_client_write_seconds_total", tot.ClientWrite.Seconds()},
		{"sdscale_trace_server_busy_seconds_total", tot.ServerDur.Seconds()},
		{"sdscale_trace_server_handler_seconds_total", tot.ServerHandler.Seconds()},
		{"sdscale_trace_server_write_seconds_total", tot.ServerWrite.Seconds()},
	}
	for _, g := range gauges {
		if err := telemetry.PromGauge(w, g.metric, g.value, labels...); err != nil {
			return err
		}
	}
	hists := t.Histograms()
	names := make([]string, 0, len(hists))
	for metric := range hists {
		names = append(names, metric)
	}
	sort.Strings(names)
	for _, metric := range names {
		if err := telemetry.PromHistogram(w, "sdscale_trace_span", hists[metric],
			"tracer", name, "span", metric); err != nil {
			return err
		}
	}
	for i, c := range t.SlowestChildren(10) {
		if err := telemetry.PromGauge(w, "sdscale_trace_slowest_child_seconds", c.Dur.Seconds(),
			"tracer", name, "rank", fmt.Sprintf("%d", i+1),
			"child", fmt.Sprintf("%d", c.Tag), "phase", c.Phase.String()); err != nil {
			return err
		}
	}
	return nil
}
