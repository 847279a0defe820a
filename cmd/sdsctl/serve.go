package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dsrhaslab/sdscale"
	"github.com/dsrhaslab/sdscale/internal/config"
	"github.com/dsrhaslab/sdscale/internal/elastic"
	"github.com/dsrhaslab/sdscale/internal/trace"
)

// daemon is the serve loop's state: the running deployment, the reload
// policy, and the runtime knobs the loop owns. The interval is touched only
// from the loop goroutine — reload triggers (SIGHUP, watcher) are drained
// between cycles, which is also what keeps a signal arriving mid-cycle from
// racing the cycle: it waits in the channel until the cycle boundary. The
// elastic controller is an atomic pointer because the debug endpoint reads
// it from HTTP goroutines while reloads swap it.
type daemon struct {
	dep     *sdscale.Deployment
	rel     *config.Reloader
	watcher *config.Watcher // nil when watching is disabled (tests)
	el      atomic.Pointer[elastic.Controller]

	interval time.Duration
	hup      <-chan os.Signal // nil when signal delivery is disabled (tests)
	reloadC  <-chan struct{}  // watcher change notifications; nil blocks forever
	logf     func(format string, args ...any)

	cycles  expvar.Int
	applied expvar.Int
}

// vars renders the daemon's expvar block (published as "sdscale.serve").
func (d *daemon) vars() any {
	out := map[string]any{
		"cycles":      d.cycles.Value(),
		"reloads":     d.rel.Reloads(),
		"rejects":     d.rel.Rejects(),
		"applied":     d.applied.Value(),
		"aggregators": d.dep.NumAggregators(),
	}
	if d.watcher != nil {
		out["polls"] = d.watcher.Polls()
	}
	if el := d.el.Load(); el != nil {
		st := el.Stats()
		out["elastic_grows"] = st.Grows
		out["elastic_shrinks"] = st.Shrinks
		out["elastic_last_p90_ns"] = int64(st.LastP90)
	}
	return out
}

// tierActuator adapts the deployment's aggregator tier to the elasticity
// loop's actuator interface.
type tierActuator struct{ dep *sdscale.Deployment }

func (a tierActuator) Size() int                        { return a.dep.NumAggregators() }
func (a tierActuator) Grow(ctx context.Context) error   { return a.dep.GrowAggregators(ctx) }
func (a tierActuator) Shrink(ctx context.Context) error { return a.dep.ShrinkAggregators(ctx) }

// elasticConfig lowers a config SLO block onto the elastic controller's
// knobs.
func elasticConfig(s *sdscale.ConfigSLO, logf func(string, ...any)) elastic.Config {
	return elastic.Config{
		SLO:           s.TargetP90.Value(),
		Window:        s.Window,
		BreachWindows: s.BreachWindows,
		ClearWindows:  s.ClearWindows,
		HeadroomRatio: s.HeadroomRatio,
		Cooldown:      s.Cooldown.Value(),
		Min:           s.MinAggregators,
		Max:           s.MaxAggregators,
		Logf:          logf,
	}
}

// notifyHUP subscribes to SIGHUP, the operator's explicit reload trigger.
func notifyHUP() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	return ch
}

// runServe is `sdsctl serve`: load the configuration file, start the
// deployment it describes, and run control cycles on the configured
// interval until the context is cancelled (SIGINT/SIGTERM). The file is
// watched for edits and re-read on SIGHUP; safe deltas apply live at the
// next cycle boundary, anything else is rejected and the old configuration
// stays in force.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfgPath := fs.String("config", "", "configuration file (JSON; required)")
	fs.Parse(args)
	if *cfgPath == "" {
		return fmt.Errorf("serve: -config is required")
	}

	cf, err := sdscale.LoadConfig(*cfgPath)
	if err != nil {
		return err
	}
	topo, err := sdscale.TopologyFromConfig(cf)
	if err != nil {
		return err
	}
	dep, err := sdscale.StartTopology(topo)
	if err != nil {
		return err
	}
	// Close exactly once, and always before the final report: closing is
	// what flushes every store's group-commit window to disk.
	closeDep := sync.OnceFunc(dep.Close)
	defer closeDep()

	d := &daemon{
		dep:      dep,
		rel:      config.NewReloader(*cfgPath, cf),
		interval: cf.CycleInterval(),
		logf:     logf,
	}
	d.watcher = config.NewWatcher(*cfgPath, cf.PollInterval())
	defer d.watcher.Close()
	d.reloadC = d.watcher.C
	d.hup = notifyHUP()

	if cf.SLO != nil {
		el, err := elastic.New(elasticConfig(cf.SLO, logf), tierActuator{dep})
		if err != nil {
			return err
		}
		d.el.Store(el)
	}

	if cf.Debug != "" {
		dbg, err := trace.StartDebug(trace.DebugOptions{Addr: cf.Debug, Logf: logf})
		if err != nil {
			return err
		}
		defer dbg.Close()
		dbg.Handle("/healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "ok cycles=%d shards=%d stages=%d\n",
				d.cycles.Value(), dep.Router.NumShards(), dep.Router.Stats().Stages)
		}))
		dbg.AddMetrics("shards", shardMetrics(dep))
		// The elastic source reads through the atomic pointer so reloads
		// that arm, retune, or disarm the loop need not touch the server.
		dbg.AddMetrics("elastic", trace.MetricsFunc(func(w io.Writer) error {
			if el := d.el.Load(); el != nil {
				return el.WritePrometheus(w)
			}
			return nil
		}))
		fmt.Printf("debug endpoint on http://%s (/metrics /healthz /debug/vars /debug/pprof)\n", dbg.Addr())
	}
	expvar.Publish("sdscale.serve", expvar.Func(d.vars))

	fmt.Printf("serving %d stages over %d shard(s) from %s (interval %v)\n",
		dep.Router.Stats().Stages, dep.Router.NumShards(), *cfgPath, d.interval)

	if err := serveLoop(ctx, d); err != nil {
		return err
	}
	// Graceful drain: serveLoop only returns between cycles, so the
	// in-flight cycle already finished. Close now — flushing the WAL
	// group-commit window — then report.
	closeDep()
	fmt.Println("\n--- final report ---")
	fmt.Print(dep.Recorder().Summarize().String())
	fmt.Printf("cycles=%d reloads=%d rejects=%d aggregators=%d\n",
		d.cycles.Value(), d.rel.Reloads(), d.rel.Rejects(), dep.NumAggregators())
	return nil
}

// shardMetrics renders every shard's current leader, its series labelled
// shard="<i>". It reads the leaders on each scrape, so a promoted standby's
// counters and a shard a reload added are exported as soon as they serve.
func shardMetrics(dep *sdscale.Deployment) trace.MetricsFunc {
	return func(w io.Writer) error {
		for i, g := range dep.Router.Leaders() {
			if err := g.WritePrometheusLabeled(w, "shard", strconv.Itoa(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// serveLoop runs control cycles until ctx is cancelled, applying reloads
// and elasticity decisions between cycles. It never interrupts an in-flight
// cycle: shutdown and reload triggers are observed only at cycle
// boundaries.
func serveLoop(ctx context.Context, d *daemon) error {
	for {
		// The cycle runs under its own context: cancelling the daemon must
		// drain, not abort, the in-flight cycle.
		bd, err := d.dep.RunControlCycle(context.WithoutCancel(ctx))
		if err != nil {
			return fmt.Errorf("serve: control cycle: %w", err)
		}
		d.cycles.Add(1)
		if el := d.el.Load(); el != nil {
			if _, err := el.Observe(context.WithoutCancel(ctx), bd.Total); err != nil {
				d.logf("sdsctl: elastic: %v", err)
			}
		}
		if !d.pause(ctx) {
			return nil
		}
	}
}

// pause sleeps one control interval, servicing reload triggers as they
// arrive. A reload that changes the interval re-arms the pause, so a
// shortened interval takes effect at the next cycle rather than after the
// old (possibly much longer) pause expires. It returns false when the
// daemon should shut down.
func (d *daemon) pause(ctx context.Context) bool {
	timer := time.NewTimer(d.interval)
	defer timer.Stop()
	for {
		prev := d.interval
		select {
		case <-ctx.Done():
			return false
		case <-timer.C:
			return true
		case <-d.hup:
			d.applyReload(ctx)
		case <-d.reloadC:
			d.applyReload(ctx)
		}
		if d.interval != prev {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d.interval)
		}
	}
}

// applyReload attempts one hot reload: re-read the file, classify the
// delta, apply the safe changes to the running deployment. Any rejection —
// parse error, validation error, unsafe delta — keeps the previous
// configuration in force.
func (d *daemon) applyReload(ctx context.Context) {
	old := d.rel.Current()
	next, delta, err := d.rel.Reload()
	if err != nil {
		d.logf("sdsctl: reload rejected: %v", err)
		return
	}
	if delta.Empty() {
		return
	}
	if _, err := sdscale.ApplyConfig(ctx, d.dep, old, next); err != nil {
		d.logf("sdsctl: reload apply: %v", err)
		return
	}
	if delta.Interval != nil {
		d.interval = *delta.Interval // the next pause uses the new interval
	}
	if delta.Poll != nil && d.watcher != nil {
		d.watcher.SetInterval(*delta.Poll)
	}
	if delta.SLO {
		d.retuneSLO(next.SLO)
	}
	d.applied.Add(1)
	d.logf("sdsctl: reload applied: %s", delta)
}

// retuneSLO re-arms, retunes, or disarms the elasticity loop after a reload
// changed the slo block.
func (d *daemon) retuneSLO(s *sdscale.ConfigSLO) {
	switch el := d.el.Load(); {
	case s == nil:
		d.el.Store(nil)
	case el == nil:
		fresh, err := elastic.New(elasticConfig(s, d.logf), tierActuator{d.dep})
		if err != nil {
			d.logf("sdsctl: slo: %v", err)
			return
		}
		d.el.Store(fresh)
	default:
		if err := el.SetConfig(elasticConfig(s, d.logf)); err != nil {
			d.logf("sdsctl: slo: %v", err)
		}
	}
}
