package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale"
	"github.com/dsrhaslab/sdscale/internal/config"
	"github.com/dsrhaslab/sdscale/internal/trace"
)

// startTestDaemon builds a daemon around a config file written to a temp
// dir, with a fast simulated network and no OS signal/watcher wiring — the
// tests drive reloads through an injected hup channel.
func startTestDaemon(t *testing.T, cfgJSON string) (*daemon, string, chan os.Signal) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sdscale.json")
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := sdscale.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sdscale.TopologyFromConfig(cf)
	if err != nil {
		t.Fatal(err)
	}
	topo.Net = sdscale.SimNetConfig{PropDelay: -1}
	dep, err := sdscale.StartTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)

	hup := make(chan os.Signal, 1)
	d := &daemon{
		dep:      dep,
		rel:      config.NewReloader(path, cf),
		interval: cf.CycleInterval(),
		hup:      hup,
		logf:     t.Logf,
	}
	return d, path, hup
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeIntervalReloadNextCycle pins the reload semantics of the control
// interval: a daemon pacing at a long interval adopts a shortened one at
// the next cycle boundary, not after the old pause expires.
func TestServeIntervalReloadNextCycle(t *testing.T) {
	d, path, hup := startTestDaemon(t, `{"stages": 8, "jobs": 2, "interval": "1h"}`)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()

	// The first cycle runs immediately; then the loop sleeps for an hour.
	waitFor(t, "first cycle", func() bool { return d.cycles.Value() >= 1 })

	if err := os.WriteFile(path, []byte(`{"stages": 8, "jobs": 2, "interval": "5ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hup <- os.Interrupt // any signal value; the channel is the trigger
	waitFor(t, "cycles under the new interval", func() bool { return d.cycles.Value() >= 3 })
	if got := d.rel.Reloads(); got != 1 {
		t.Errorf("reloads = %d, want 1", got)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop: %v", err)
	}
}

// TestServeRejectKeepsOld pins the reject path: an unparseable new file and
// an unsafe delta each leave the running configuration and deployment
// untouched, count a rejection, and keep the loop serving.
func TestServeRejectKeepsOld(t *testing.T) {
	d, path, hup := startTestDaemon(t, `{"stages": 8, "jobs": 2, "interval": "5ms"}`)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()
	waitFor(t, "first cycle", func() bool { return d.cycles.Value() >= 1 })

	// Garbage: parse error, old config stays.
	if err := os.WriteFile(path, []byte(`{"stages": `), 0o644); err != nil {
		t.Fatal(err)
	}
	hup <- os.Interrupt
	waitFor(t, "parse rejection", func() bool { return d.rel.Rejects() >= 1 })

	// Unsafe delta: jobs changes need a restart; old config stays.
	if err := os.WriteFile(path, []byte(`{"stages": 8, "jobs": 5, "interval": "5ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hup <- os.Interrupt
	waitFor(t, "unsafe rejection", func() bool { return d.rel.Rejects() >= 2 })

	if got := d.rel.Reloads(); got != 0 {
		t.Errorf("reloads = %d, want 0 (both attempts rejected)", got)
	}
	if cur := d.rel.Current(); cur.Jobs != 2 {
		t.Errorf("current config mutated: jobs = %d, want 2", cur.Jobs)
	}
	// The loop is still serving after both rejections.
	base := d.cycles.Value()
	waitFor(t, "cycles after rejections", func() bool { return d.cycles.Value() > base })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop: %v", err)
	}
}

// TestServeReloadAppliesFleetResize drives a stages grow through the full
// daemon path and asserts no control cycle is dropped across the reload:
// every cycle succeeds and every stage (old and new) holds a rule.
func TestServeReloadAppliesFleetResize(t *testing.T) {
	d, path, hup := startTestDaemon(t, `{"stages": 8, "jobs": 2, "interval": "5ms"}`)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()
	waitFor(t, "first cycle", func() bool { return d.cycles.Value() >= 1 })

	if err := os.WriteFile(path, []byte(`{"stages": 14, "jobs": 2, "interval": "5ms", "jobWeights": {"1": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hup <- os.Interrupt
	waitFor(t, "reload applied", func() bool { return d.applied.Value() >= 1 })
	waitFor(t, "fleet grown", func() bool { return d.dep.Router.Stats().Stages == 14 })
	waitFor(t, "post-reload cycles", func() bool { return d.cycles.Value() >= 3 })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop dropped a cycle: %v", err)
	}
	for _, v := range d.dep.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Errorf("stage %d has no rule after the reload", v.Info().ID)
		}
	}
}

// TestServeHUPDuringCycleDoesNotRace hammers the reload trigger while
// cycles run back-to-back; under -race this pins that a signal landing
// mid-cycle never races the cycle (it waits in the channel until the
// boundary).
func TestServeHUPDuringCycleDoesNotRace(t *testing.T) {
	d, path, hup := startTestDaemon(t, `{"stages": 12, "jobs": 2, "interval": "1ms"}`)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()

	// Alternate two valid configs so most triggers carry a real delta.
	a := []byte(`{"stages": 12, "jobs": 2, "interval": "1ms", "jobWeights": {"1": 2}}`)
	b := []byte(`{"stages": 12, "jobs": 2, "interval": "1ms"}`)
	for i := 0; i < 20; i++ {
		body := a
		if i%2 == 1 {
			body = b
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		select {
		case hup <- os.Interrupt:
		default: // coalesce, exactly like a real signal burst
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, "a reload landing", func() bool { return d.rel.Reloads() >= 1 })
	waitFor(t, "cycles throughout", func() bool { return d.cycles.Value() >= 10 })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop: %v", err)
	}
}

// TestServeWatcherTriggersReload wires a real file watcher (no SIGHUP) and
// asserts an on-disk edit alone reaches the running deployment.
func TestServeWatcherTriggersReload(t *testing.T) {
	d, path, _ := startTestDaemon(t, `{"stages": 8, "jobs": 2, "interval": "5ms", "poll": "5ms"}`)
	w := config.NewWatcher(path, d.rel.Current().PollInterval())
	defer w.Close()
	d.watcher = w
	d.reloadC = w.C

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()
	waitFor(t, "first cycle", func() bool { return d.cycles.Value() >= 1 })

	if err := os.WriteFile(path, []byte(`{"stages": 10, "jobs": 2, "interval": "5ms", "poll": "5ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watcher-driven reload", func() bool { return d.rel.Reloads() >= 1 })
	waitFor(t, "fleet grown", func() bool { return d.dep.Router.Stats().Stages == 10 })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop: %v", err)
	}
}

// TestServeMetricsFollowShardReload: /metrics exports every shard's current
// leader, each under its own shard label, including a shard that a live
// reload added after the endpoint started.
func TestServeMetricsFollowShardReload(t *testing.T) {
	d, path, hup := startTestDaemon(t, `{"stages": 8, "jobs": 2, "interval": "5ms"}`)
	dbg, err := trace.StartDebug(trace.DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	dbg.AddMetrics("shards", shardMetrics(d.dep))
	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	children := func(shard int) string {
		return fmt.Sprintf(`sdscale_controller_children{controller="global",shard="%d"}`, shard)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, d) }()
	waitFor(t, "first cycle", func() bool { return d.cycles.Value() >= 1 })
	if m := scrape(); !strings.Contains(m, children(0)) || strings.Contains(m, children(1)) {
		t.Fatalf("one shard: /metrics should hold shard 0's series and no shard 1's:\n%s", m)
	}

	if err := os.WriteFile(path, []byte(`{"stages": 8, "jobs": 2, "interval": "5ms", "shards": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	hup <- os.Interrupt
	waitFor(t, "second shard", func() bool { return d.dep.Router.NumShards() == 2 })
	if m := scrape(); !strings.Contains(m, children(0)) || !strings.Contains(m, children(1)) {
		t.Errorf("two shards: /metrics lacks a shard's series:\n%s", m)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveLoop: %v", err)
	}
}
