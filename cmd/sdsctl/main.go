// Command sdsctl runs sdscale control-plane components over real TCP, one
// process per role, for multi-host deployments — the same controllers and
// stages the simulated experiments use, on a real network.
//
// Roles:
//
//	sdsctl serve -config sdscale.json
//	    Run the daemon: load a declarative deployment spec from the
//	    configuration file, start it, and run control cycles on the
//	    configured interval until SIGTERM/SIGINT (graceful drain: the
//	    in-flight cycle finishes, stores flush, the deployment closes).
//	    The file is watched for edits and re-read on SIGHUP; safe changes
//	    (interval, job weights, fleet size, shard count, SLO knobs) apply
//	    live, anything else is rejected and the old configuration stays.
//
//	sdsctl global -listen :7000 -capacity 1000000,100000 [-algorithm psfa] [-interval 1s]
//	    Run the global controller. Stages register at the listen address;
//	    the controller dials them back and runs control cycles, printing a
//	    latency summary on SIGINT. With -id and -peers 2=host2:7000,... it
//	    is one controller of the coordinated flat design (paper §VI future
//	    work): it exchanges per-job aggregates with the listed fellows, and
//	    fellows auto-mesh from one-sided configuration.
//
//	sdsctl aggregator -listen :7001 [-fanout 8]
//	    Run an aggregator controller. Stages register at the listen
//	    address. Attach it to a global controller manually (the in-process
//	    harness does this automatically; over TCP the global currently
//	    manages stages directly or via pre-attached aggregators).
//
//	sdsctl stages -parent host:7000 -count 50 -job 1 -weight 1 [-workload stress]
//	    Run a fleet of virtual stages in this process (the paper runs 50
//	    per compute node) and register each with the parent controller.
//
//	sdsctl top500
//	    Print the paper's Table I and the control-plane sizing it implies.
//
//	sdsctl store inspect <dir>
//	    Print the snapshot, write-ahead log records, and recovered state of
//	    a controller data directory (offline; the controller need not run).
//
//	sdsctl topology -stages 10000 -shards 4 -standbys 2 [-validate] [-cycles 5]
//	    Validate a declarative deployment spec (the shape sdscale.Topology
//	    lowers onto) by the same shape rules the builder applies, so a spec
//	    that validates builds, print it with the builder's defaults applied,
//	    and dry-run it on the in-process simulated network: build
//	    the deployment, run a few control cycles, and print the shard route
//	    table and per-shard stats. Use it to check a spec — shard counts, standby quorums,
//	    aggregator fan-in — before wiring real hosts with the per-role
//	    commands above, which are the manual-assembly path to the same
//	    deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dsrhaslab/sdscale"
	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/top500"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(ctx, os.Args[2:])
	case "global":
		err = runGlobal(ctx, os.Args[2:])
	case "aggregator":
		err = runAggregator(ctx, os.Args[2:])
	case "stages":
		err = runStages(ctx, os.Args[2:])
	case "store":
		err = runStore(os.Args[2:])
	case "topology":
		err = runTopology(ctx, os.Args[2:], os.Stdout)
	case "top500":
		fmt.Print(top500.Table())
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sdsctl <serve|global|aggregator|stages|store|topology|top500> [flags]
run "sdsctl <role> -h" for role-specific flags`)
}

// parseRates parses "data,meta" operation rates.
func parseRates(s string) (wire.Rates, error) {
	var r wire.Rates
	parts := strings.Split(s, ",")
	if len(parts) != int(wire.NumClasses) {
		return r, fmt.Errorf("want %d comma-separated rates, got %q", wire.NumClasses, s)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return r, fmt.Errorf("bad rate %q: %v", p, err)
		}
		r[i] = v
	}
	return r, nil
}

func runGlobal(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("global", flag.ExitOnError)
	listen := fs.String("listen", ":7000", "registration listen address")
	id := fs.Uint64("id", 1, "controller ID (unique across coordinated controllers)")
	capacity := fs.String("capacity", "1000000,100000", "PFS capacity as data,meta ops/s (the full capacity, same at every coordinated controller)")
	algorithm := fs.String("algorithm", "psfa", "control algorithm (psfa, uniform, weighted-static, maxmin, strict-priority)")
	interval := fs.Duration("interval", time.Second, "control cycle interval (0 = stress, back-to-back)")
	fanout := fs.Int("fanout", controller.DefaultFanOut, "fan-out parallelism")
	report := fs.Duration("report", 10*time.Second, "status report interval")
	aggregators := fs.String("aggregators", "", "comma-separated aggregator addresses to attach (hierarchical mode)")
	peers := fs.String("peers", "", "comma-separated id=addr fellow controllers (coordinated mode), e.g. 2=host2:7000,3=host3:7000")
	samplesPath := fs.String("samples", "", "write a REMORA-style resource time series to this CSV file on exit")
	sampleEvery := fs.Duration("sample-interval", time.Second, "resource sampling interval")
	dataDir := fs.String("data-dir", "", "durable state directory: mutations are logged to a write-ahead store and recovered on restart")
	fs.Parse(args)

	cap, err := parseRates(*capacity)
	if err != nil {
		return err
	}
	alg, err := controlalg.New(*algorithm)
	if err != nil {
		return err
	}

	var st *store.Store
	var recovered bool
	if *dataDir != "" {
		st, err = store.Open(store.Options{Dir: *dataDir, Logf: logf})
		if err != nil {
			return err
		}
		rec := st.Recovered()
		recovered = rec.State != nil && len(rec.State.Members) > 0
	}

	var meter transport.Meter
	var cpu monitor.CPUMeter
	g, err := controller.StartGlobal(controller.GlobalConfig{
		ID:         *id,
		Network:    tcpnet.New(),
		ListenAddr: *listen,
		Algorithm:  alg,
		Capacity:   cap,
		FanOut:     *fanout,
		Meter:      &meter,
		CPU:        &cpu,
		Store:      st, // the controller owns and closes the store
		Logf:       logf,
	})
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	closeG := sync.OnceFunc(func() { g.Close() })
	defer closeG()
	fmt.Printf("global controller listening on %s (algorithm %s, capacity %v)\n", g.Addr(), alg.Name(), cap)
	if recovered {
		// A previous incarnation left durable membership behind: replay it
		// and re-adopt the fleet before running cycles.
		if err := g.Recover(ctx); err != nil {
			return fmt.Errorf("recover from %s: %w", *dataDir, err)
		}
		ss := g.Stats()
		if ss.Store != nil {
			fmt.Printf("recovered %d children from %s (%d records in %v)\n",
				g.NumChildren(), *dataDir, ss.Store.Replay.Records, ss.Store.Replay.Duration.Round(time.Microsecond))
		}
	}

	if *aggregators != "" {
		for i, addr := range strings.Split(*aggregators, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if err := g.AttachAggregator(ctx, uint64(1_000_000+i), addr); err != nil {
				return fmt.Errorf("attach aggregator %s: %w", addr, err)
			}
			fmt.Printf("attached aggregator %s\n", addr)
		}
	}
	for _, entry := range strings.Split(*peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad -peers entry %q (want id=addr)", entry)
		}
		pid, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad peer id %q: %v", idStr, err)
		}
		if err := g.AddPeer(ctx, pid, addr); err != nil {
			return err
		}
		fmt.Printf("meshed with peer %d at %s\n", pid, addr)
	}

	var pm monitor.ProcessMonitor
	pm.Start()
	var sampler *monitor.Sampler
	if *samplesPath != "" {
		sampler = monitor.StartSampler(*sampleEvery, &meter)
	}
	go func() {
		t := time.NewTicker(*report)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s := g.Recorder().Summarize()
				fmt.Printf("children=%d stages=%d cycles=%d mean=%v rel-std=%.1f%%\n",
					g.NumChildren(), g.NumStages(), s.Cycles,
					s.Total.Mean.Round(time.Microsecond), 100*s.RelStddev())
			case <-ctx.Done():
				return
			}
		}
	}()

	err = g.Run(ctx, *interval)
	// Drain before reporting: closing the controller is what flushes the
	// store's group-commit window, so a signal cannot lose the WAL tail.
	closeG()
	printFinalReport(g, &pm, &meter)
	if sampler != nil {
		samples := sampler.Stop()
		data := monitor.SamplesCSVHeader + "\n" + monitor.SamplesCSV(samples)
		if werr := os.WriteFile(*samplesPath, []byte(data), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "sdsctl: write samples:", werr)
		} else {
			fmt.Printf("wrote %d resource samples to %s\n", len(samples), *samplesPath)
		}
	}
	if ctx.Err() != nil {
		return nil // clean shutdown on signal
	}
	return err
}

func printFinalReport(g *controller.Global, pm *monitor.ProcessMonitor, meter *transport.Meter) {
	u := pm.Stop()
	s := g.Recorder().Summarize()
	fmt.Println("\n--- final report ---")
	fmt.Print(s.String())
	tx, rx := meter.Snapshot()
	fmt.Printf("process: cpu %.2f%%, rss %.2f GB, tx %.2f MB, rx %.2f MB over %v\n",
		u.CPUPercent, u.MemGB(), float64(tx)/1e6, float64(rx)/1e6, u.Elapsed.Round(time.Second))
}

func runAggregator(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("aggregator", flag.ExitOnError)
	listen := fs.String("listen", ":7001", "listen address (global controller and stage registrations)")
	id := fs.Uint64("id", 1, "aggregator ID")
	fanout := fs.Int("fanout", controller.DefaultFanOut, "fan-out parallelism")
	fs.Parse(args)

	var meter transport.Meter
	var cpu monitor.CPUMeter
	a, err := controller.StartAggregator(controller.AggregatorConfig{
		ID:      *id,
		Network: tcpnet.New(),

		ListenAddr: *listen,
		FanOut:     *fanout,
		Meter:      &meter,
		CPU:        &cpu,
		Logf:       logf,
	})
	if err != nil {
		return err
	}
	closeA := sync.OnceFunc(func() { a.Close() })
	defer closeA()
	fmt.Printf("aggregator %d listening on %s\n", a.ID(), a.Addr())
	<-ctx.Done()
	closeA() // drain before reporting, same as serve
	tx, rx := meter.Snapshot()
	fmt.Printf("\naggregator served %d stages; tx %.2f MB rx %.2f MB\n",
		a.NumStages(), float64(tx)/1e6, float64(rx)/1e6)
	return nil
}

func runStages(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stages", flag.ExitOnError)
	parent := fs.String("parent", "", "parent controller registration address (required)")
	count := fs.Int("count", 50, "number of virtual stages in this process")
	baseID := fs.Uint64("base-id", 0, "first stage ID (0 derives from PID)")
	job := fs.Uint64("job", 1, "job ID the stages serve")
	weight := fs.Float64("weight", 1, "job QoS weight")
	spec := fs.String("workload", "stress", "workload spec (see workload.Parse)")
	listenHost := fs.String("host", "", "advertised host for stage listeners (default: OS-chosen)")
	fs.Parse(args)

	if *parent == "" {
		return fmt.Errorf("stages: -parent is required")
	}
	gen, err := workload.Parse(*spec)
	if err != nil {
		return err
	}
	base := *baseID
	if base == 0 {
		base = uint64(os.Getpid()) * 1_000_000
	}

	network := tcpnet.New()
	var stages []*stage.Virtual
	defer func() {
		for _, v := range stages {
			v.Close()
		}
	}()
	for i := 0; i < *count; i++ {
		v, err := stage.StartVirtual(stage.Config{
			ID:         base + uint64(i),
			JobID:      *job,
			Weight:     *weight,
			Generator:  gen,
			Network:    network,
			ListenAddr: *listenHost + ":0",
		})
		if err != nil {
			return fmt.Errorf("stage %d: %w", i, err)
		}
		stages = append(stages, v)
		if err := stage.Register(ctx, network, *parent, v.Info()); err != nil {
			return fmt.Errorf("register stage %d: %w", i, err)
		}
	}
	fmt.Printf("%d virtual stages registered with %s (job %d, weight %g, workload %s)\n",
		len(stages), *parent, *job, *weight, *spec)
	<-ctx.Done()

	var collects, enforces uint64
	for _, v := range stages {
		c, e := v.Counters()
		collects += c
		enforces += e
	}
	fmt.Printf("\nstages served %d collects, %d enforces\n", collects, enforces)
	return nil
}

// runStore dispatches the offline store tooling: `sdsctl store inspect
// <dir>` prints the snapshot, log records, and recovered state of a
// controller data directory without opening it for writing.
func runStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("store: usage: sdsctl store inspect <dir>")
	}
	switch args[0] {
	case "inspect":
		fs := flag.NewFlagSet("store inspect", flag.ExitOnError)
		fs.Parse(args[1:])
		if fs.NArg() != 1 {
			return fmt.Errorf("store inspect: usage: sdsctl store inspect <dir>")
		}
		return store.Inspect(fs.Arg(0), os.Stdout)
	default:
		return fmt.Errorf("store: unknown subcommand %q (want inspect)", args[0])
	}
}

// runTopology validates a declarative deployment spec, prints it as the
// builder would build it, and dry-runs it as a simulated deployment: the
// fastest way to sanity-check a spec before assembling the same deployment
// role by role over TCP.
func runTopology(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	stages := fs.Int("stages", 1000, "fleet size (one virtual stage per simulated compute node)")
	jobs := fs.Int("jobs", 16, "jobs the stages are spread over")
	shards := fs.Int("shards", 1, "concurrently active shard leaders the fleet is partitioned across")
	standbys := fs.Int("standbys", 0, "warm standbys per shard (at most 2; 2 = majority quorum)")
	fanIn := fs.Int("fanin", 0, "stages per aggregator (hierarchical design; exclusive with -shards > 1)")
	capacity := fs.String("capacity", "1000000,100000", "PFS capacity as data,meta ops/s")
	cycles := fs.Int("cycles", 5, "control cycles to run in the dry-run")
	validateOnly := fs.Bool("validate", false, "validate the spec by the builder's shape rules and exit without building anything")
	fs.Parse(args)

	cap, err := parseRates(*capacity)
	if err != nil {
		return err
	}
	// The spec as sdscale.Topology lowers it; Validate applies the
	// builder's defaults, so what is printed is what is built.
	spec, err := cluster.Config{
		Topology: cluster.Flat,
		Stages:   *stages,
		Jobs:     *jobs,
		Shards:   *shards,
		Standbys: *standbys,
		Capacity: cap,
		Net:      sdscale.ExperimentNet(),
	}.WithFanIn(*fanIn)
	if err == nil {
		spec, err = spec.Validate()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "topology spec valid: %d stages, %d jobs, %d shard(s), %d standby(s)/shard",
		spec.Stages, spec.Jobs, spec.Shards, spec.Standbys)
	if *fanIn > 0 {
		fmt.Fprintf(out, ", aggregator fan-in %d (%d aggregators)", *fanIn, spec.Aggregators)
	}
	fmt.Fprintln(out)
	if *validateOnly {
		return nil
	}

	start := time.Now()
	d, err := cluster.Build(spec)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(out, "built simulated deployment in %v\n", time.Since(start).Round(time.Millisecond))

	for i := 0; i < *cycles; i++ {
		if _, err := d.RunControlCycle(ctx); err != nil {
			return fmt.Errorf("cycle %d: %w", i+1, err)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, d.Recorder().Summarize().String())

	st := d.Router.Stats()
	fmt.Fprintf(out, "\nshard route table (%d shard(s), max epoch %d):\n", len(st.Shards), st.MaxEpoch)
	for i, cs := range st.Shards {
		fmt.Fprintf(out, "  shard %d: epoch %d, %d children, %d quarantined, %d call errors\n",
			i, cs.Epoch, cs.Children, cs.Quarantined, cs.CallErrors)
	}
	if len(st.Shards) > 1 {
		fmt.Println("\nsample placement (stage -> shard):")
		for _, id := range []uint64{1, uint64(*stages / 2), uint64(*stages)} {
			s, _ := d.Router.Route(id)
			fmt.Fprintf(out, "  stage %-8d -> shard %d\n", id, s)
		}
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
