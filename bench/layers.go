package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// The traced pass: a short cycle window with spans on, the same window with
// spans off (their difference is the tracing overhead), then the layer
// replay — each layer's public functions called alone, on payloads captured
// from the fleet the window just drove.

// windowShare is the part of -seconds each of the two cycle windows of a
// traced pass may take; the replay's iteration counts are fixed.
const windowShare = 0.3

// fanWidth is how many connections the pipelined and shared-frame replays
// fan out over, like a controller with that many children.
const fanWidth = 1024

func tracedPass(out io.Writer, s spec, o options) (result, error) {
	ctx := context.Background()
	f, _, err := setUp(ctx, s, o.seed)
	if err != nil {
		return result{}, err
	}
	defer f.close()

	tr := newTracer(s.name)
	stop := until{cycles: o.cycles / 2, seconds: o.seconds * windowShare}
	if o.cycles > 0 {
		stop.cycles = max(stop.cycles, 1)
	}
	traced := measure(ctx, s, f, s.warmup, stop, tr)
	plain := measure(ctx, s, f, s.warmup+traced.cycles, stop, nil)
	findings := append(check(traced, f), check(plain, f)...)
	if len(traced.totalMs) == 0 || len(plain.totalMs) == 0 {
		return result{}, fmt.Errorf("no cycle completed")
	}
	vals := traced.values()
	vals["trace.overhead_pct"] = 100 * (median(traced.totalMs)/median(plain.totalMs) - 1)

	r := &replay{tr: tr, seed: o.seed, short: o.cycles > 0, cpuNs: make(map[string]float64), scratch: filepath.Join(o.outDir, fmt.Sprintf("store-%d", os.Getpid()))}
	if err := r.run(ctx, f, vals); err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	r.ledger(traced, vals)

	path := filepath.Join(o.outDir, s.name+".trace.json")
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "windows: traced %d cycles in %.3f s, untraced %d cycles in %.3f s; %d spans in %s\n",
		traced.cycles, traced.wall.Seconds(), plain.cycles, plain.wall.Seconds(), len(tr.spans), path)
	return finish(out, traced, findings, vals, layerNames())
}

// replay measures each layer alone. Every section is one root span with one
// child span per batch of identical calls; a layer's _ns metric is the
// median over batches of span self time per call. cpuNs keeps each section's
// process CPU time per call for the ledger.
type replay struct {
	tr      *tracer
	seed    uint64
	short   bool // a fixed-count (test or sizing) pass: a sixteenth of the batches
	scratch string
	cpuNs   map[string]float64
}

// batches is how many batches a section runs: n, or a sixteenth when short.
func (r *replay) batches(n int) int {
	if r.short {
		return max(n/16, 2)
	}
	return n
}

// section runs batches × calls calls of one layer function and returns the
// median wall time per call.
func (r *replay) section(name string, batches, calls int, batch func()) float64 {
	batches = r.batches(batches)
	root := r.tr.begin(name, 0, 0, 0)
	cpu0 := processCPU()
	for b := 0; b < batches; b++ {
		id := r.tr.begin(name, root, 0, calls)
		batch()
		r.tr.end(id)
	}
	cpu := processCPU() - cpu0
	r.tr.end(root)
	r.cpuNs[name] = float64(cpu) / float64(batches*calls)
	return median(r.tr.selfNsPerCall(name))
}

func (r *replay) run(ctx context.Context, f *fleet, vals map[string]float64) error {
	probe := f.stages[r.seed%uint64(len(f.stages))]
	rule, ok := probe.LastRule()
	if !ok {
		return fmt.Errorf("probe stage holds no rule")
	}
	epoch := f.global.Epoch()

	sim := simnet.New(rawNet)
	if err := r.stageAndWire(ctx, sim, probe.Info(), rule, epoch, vals); err != nil {
		return err
	}
	simRPC, err := r.rpc(ctx, "rpc.", sim.Host("null-server"), sim.Host("null-client"), ":0")
	if err != nil {
		return err
	}
	tcp := tcpnet.New()
	tcpRPC, err := r.rpc(ctx, "rpc.tcp_", tcp, tcp, "127.0.0.1:0")
	if err != nil {
		return err
	}
	vals["rpc.call_rtt_ns"] = simRPC.rtt
	vals["rpc.allocs_per_call"] = simRPC.allocs
	vals["rpc.pipelined_call_ns"] = simRPC.pipelined
	vals["rpc.shared_send_ns"] = simRPC.shared
	vals["rpc.tcp_pipelined_call_ns"] = tcpRPC.pipelined

	if vals["transport.simnet_rtt_ns"], err = r.echo("transport.simnet_rtt_ns", sim.Host("echo-server"), sim.Host("echo-client"), ":0"); err != nil {
		return err
	}
	if vals["transport.tcpnet_rtt_ns"], err = r.echo("transport.tcpnet_rtt_ns", tcp, tcp, "127.0.0.1:0"); err != nil {
		return err
	}
	r.compute(f, vals)
	return r.store(vals)
}

// stageAndWire replays the stage and wire layers on one stand-alone virtual
// stage that mirrors the fleet's probe stage: same identity, same rule.
func (r *replay) stageAndWire(ctx context.Context, sim *simnet.Net, info stage.Info, rule wire.Rule, epoch uint64, vals map[string]float64) error {
	v, err := stage.StartVirtual(stage.Config{
		ID: info.ID, JobID: info.JobID, Weight: info.Weight, Network: sim.Host("probe-stage"),
	})
	if err != nil {
		return err
	}
	defer v.Close()
	cli, err := rpc.Dial(ctx, sim.Host("probe-parent"), v.Info().Addr,
		rpc.DialOptions{ReuseReplies: true, OnPush: func(wire.Message) {}})
	if err != nil {
		return err
	}
	defer cli.Close()

	collect := &wire.Collect{Cycle: 1, WindowMicros: 1_000_000, Epoch: epoch}
	enforce := &wire.Enforce{Cycle: 1, Rules: []wire.Rule{rule}, Epoch: epoch}
	// The first exchanges negotiate the codec and install the rule.
	var reply *wire.CollectReply
	for i := 0; i < 8; i++ {
		if _, err := cli.Call(ctx, enforce); err != nil {
			return fmt.Errorf("probe enforce: %w", err)
		}
		m, err := cli.Call(ctx, collect)
		if err != nil {
			return fmt.Errorf("probe collect: %w", err)
		}
		cr, ok := m.(*wire.CollectReply)
		if !ok || len(cr.Reports) != 1 {
			return fmt.Errorf("probe collect: unexpected reply %T", m)
		}
		reply = &wire.CollectReply{Cycle: cr.Cycle, Reports: append([]wire.StageReport(nil), cr.Reports...)}
	}
	if cli.CodecVersion() < wire.CodecV2 {
		return fmt.Errorf("probe connection stayed on codec v%d", cli.CodecVersion())
	}

	// A stage's self time is a call to it minus a call to a handler that
	// does nothing. Both are scheduler hand-offs of a few microseconds that
	// wander with the host, so the null call is taken on the same network,
	// batch by batch beside the stage calls, and subtracted pairwise.
	null, err := rpc.Serve(sim.Host("probe-null"), ":0", rpc.HandlerFunc(func(*rpc.Peer, wire.Message) (wire.Message, error) {
		return &wire.HeartbeatAck{}, nil
	}), rpc.ServerOptions{ReuseRequests: true})
	if err != nil {
		return err
	}
	defer null.Close()
	base, err := rpc.Dial(ctx, sim.Host("probe-parent"), null.Addr().String(), rpc.DialOptions{ReuseReplies: true})
	if err != nil {
		return err
	}
	defer base.Close()
	const serviceCalls = 64
	legs := []struct {
		name string
		cli  *rpc.Client
		req  wire.Message
	}{
		{"stage.null_call_ns", base, &wire.Heartbeat{SentUnixMicros: 1}},
		{"stage.collect_service_ns", cli, collect},
		{"stage.enforce_service_ns", cli, enforce},
	}
	var callErr error
	cpu := make([]time.Duration, len(legs))
	batches := r.batches(128)
	root := r.tr.begin("stage.service", 0, 0, 0)
	for b := 0; b < batches; b++ {
		for k, leg := range legs {
			cpu0 := processCPU()
			id := r.tr.begin(leg.name, root, 0, serviceCalls)
			for i := 0; i < serviceCalls; i++ {
				if _, err := leg.cli.Call(ctx, leg.req); err != nil {
					callErr = err
				}
			}
			r.tr.end(id)
			cpu[k] += processCPU() - cpu0
		}
	}
	r.tr.end(root)
	if callErr != nil {
		return fmt.Errorf("probe call: %w", callErr)
	}
	nullNs := r.tr.selfNsPerCall(legs[0].name)
	for k, leg := range legs[1:] {
		self := r.tr.selfNsPerCall(leg.name)
		for i := range self {
			self[i] -= nullNs[i]
		}
		vals[leg.name] = max(median(self), 0)
		r.cpuNs[leg.name] = max(float64(cpu[k+1]-cpu[0])/float64(batches*serviceCalls), 0)
	}
	pushed := true
	vals["stage.push_delta_ns"] = r.section("stage.push_delta_ns", 64, 64, func() {
		for i := 0; i < 64; i++ {
			pushed = v.PushDelta(1.1) && pushed
		}
	})
	if !pushed {
		return fmt.Errorf("probe stage could not push")
	}

	delta := &wire.ReportDelta{Seq: 1, Full: true, Epoch: epoch, Report: reply.Reports[0]}
	r.codec("collect_reply", reply, true, vals)
	r.codec("enforce", enforce, false, vals)
	r.codec("report_delta", delta, false, vals)
	return nil
}

// codec replays encode and decode of one captured message in codec v2 with
// the reuse options the connections use. Replies carry a live float history
// on both sides, as on a connection; requests and pushes are stateless.
func (r *replay) codec(name string, m wire.Message, history bool, vals map[string]float64) {
	const calls = 1024
	var encHist *wire.FloatHistory
	cached := wire.New(m.Type())
	dec := &wire.DecodeOpts{Version: wire.CodecV2, Reuse: func(wire.MsgType) wire.Message { return cached }}
	if history {
		encHist = wire.NewFloatHistory()
		dec.Hist = wire.NewFloatHistory()
	}
	bufs := make([][]byte, calls)
	encode := func() {
		for i := range bufs {
			bufs[i] = wire.EncodeWith(bufs[i][:0], m, wire.CodecV2, encHist)
		}
	}
	decode := func() {
		for i := range bufs {
			if _, err := wire.DecodeWith(bufs[i], dec); err != nil {
				panic(fmt.Sprintf("bench: decoding a message the harness just encoded: %v", err))
			}
		}
	}
	// Encodes and decodes alternate batch by batch so the two histories
	// stay in step; one root span covers both, each batch is its child.
	encName, decName := "wire.encode_"+name+"_ns", "wire.decode_"+name+"_ns"
	root := r.tr.begin("wire.codec_"+name, 0, 0, 0)
	for b := 0; b < r.batches(64); b++ {
		id := r.tr.begin(encName, root, 0, calls)
		encode()
		r.tr.end(id)
		id = r.tr.begin(decName, root, 0, calls)
		decode()
		r.tr.end(id)
	}
	r.tr.end(root)
	vals[encName] = median(r.tr.selfNsPerCall(encName))
	vals[decName] = median(r.tr.selfNsPerCall(decName))
	vals["wire."+name+"_bytes"] = float64(len(bufs[calls-1]))
}

type rpcCosts struct{ rtt, allocs, pipelined, shared float64 }

// rpc replays the rpc layer against a null server — a handler that answers
// a heartbeat with its ack — over one transport: a blocking call, a
// pipelined fan-out over fanWidth connections, and a shared-frame broadcast.
func (r *replay) rpc(ctx context.Context, prefix string, server, client transport.Network, addr string) (rpcCosts, error) {
	var costs rpcCosts
	ack := &wire.HeartbeatAck{}
	srv, err := rpc.Serve(server, addr, rpc.HandlerFunc(func(*rpc.Peer, wire.Message) (wire.Message, error) {
		return ack, nil
	}), rpc.ServerOptions{ReuseRequests: true})
	if err != nil {
		return costs, err
	}
	defer srv.Close()
	clients := make([]*rpc.Client, 0, fanWidth)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	req := &wire.Heartbeat{SentUnixMicros: 1}
	for i := 0; i < fanWidth; i++ {
		c, err := rpc.Dial(ctx, client, srv.Addr().String(), rpc.DialOptions{ReuseReplies: true})
		if err != nil {
			return costs, fmt.Errorf("dial null server: %w", err)
		}
		clients = append(clients, c)
		if _, err := c.Call(ctx, req); err != nil {
			return costs, fmt.Errorf("null call: %w", err)
		}
	}

	var callErr error
	note := func(err error) {
		if err != nil {
			callErr = err
		}
	}
	calls := make([]*rpc.Call, fanWidth)
	harvest := func() {
		for _, call := range calls {
			_, err := call.Wait(ctx)
			note(err)
		}
	}

	const rttBatches, rttCalls = 128, 64
	allocs0, _, _ := readHeap()
	costs.rtt = r.section(prefix+"call_rtt_ns", rttBatches, rttCalls, func() {
		for i := 0; i < rttCalls; i++ {
			_, err := clients[0].Call(ctx, req)
			note(err)
		}
	})
	allocs1, _, _ := readHeap()
	costs.allocs = float64(allocs1-allocs0) / float64(r.batches(rttBatches)*rttCalls)

	costs.pipelined = r.section(prefix+"pipelined_call_ns", 32, fanWidth, func() {
		for i, c := range clients {
			calls[i] = c.Go(ctx, req)
		}
		harvest()
	})

	// The shared send is the issue half only; its root span also covers the
	// harvests between batches, which the batch spans leave out.
	name := prefix + "shared_send_ns"
	root := r.tr.begin(name, 0, 0, 0)
	for b := 0; b < r.batches(32); b++ {
		id := r.tr.begin(name, root, 0, fanWidth)
		frame := rpc.NewSharedFrame(req)
		for i, c := range clients {
			calls[i] = c.GoShared(ctx, frame)
		}
		frame.Release()
		r.tr.end(id)
		harvest()
	}
	r.tr.end(root)
	costs.shared = median(r.tr.selfNsPerCall(name))
	if callErr != nil {
		return costs, fmt.Errorf("null call: %w", callErr)
	}
	return costs, nil
}

// echo measures one raw connection of a transport: a 64-byte write answered
// by a 64-byte echo, no rpc framing.
func (r *replay) echo(name string, server, client transport.Network, addr string) (float64, error) {
	l, err := server.Listen(addr)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := client.Dial(dialCtx, l.Addr().String())
	if err != nil {
		l.Close()
		wg.Wait()
		return 0, err
	}
	var ioErr error
	buf := make([]byte, 64)
	ns := r.section(name, 128, 64, func() {
		for i := 0; i < 64; i++ {
			if _, err := c.Write(buf); err != nil {
				ioErr = err
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				ioErr = err
			}
		}
	})
	c.Close()
	wg.Wait()
	return ns, ioErr
}

// compute replays the controller's compute-phase building blocks at the
// fleet's size: pre-aggregation, PSFA, arena slabs and the rule table.
func (r *replay) compute(f *fleet, vals map[string]float64) {
	n := len(f.stages)
	reports := make([]wire.StageReport, n)
	jobs := make(map[uint64]*controlalg.JobInput)
	for i, v := range f.stages {
		info := v.Info()
		rule, _ := v.LastRule()
		reports[i] = wire.StageReport{StageID: info.ID, JobID: info.JobID, Demand: wire.Rates{1000, 100}, Usage: rule.Limit}
		j := jobs[info.JobID]
		if j == nil {
			j = &controlalg.JobInput{JobID: info.JobID, Weight: info.Weight}
			jobs[info.JobID] = j
		}
		j.Demand = j.Demand.Add(reports[i].Demand)
		j.Stages++
	}
	var sink int
	vals["metrics.aggregate_ns_per_report"] = r.section("metrics.aggregate_ns_per_report", 32, n, func() {
		sink += len(metrics.AggregateByJob(reports))
	})

	inputs := make([]controlalg.JobInput, 0, len(jobs))
	for id := uint64(1); len(inputs) < len(jobs); id++ {
		if j, ok := jobs[id]; ok {
			inputs = append(inputs, *j)
		}
	}
	capacity := f.global.Capacity()
	vals["controlalg.psfa_allocate_ns"] = r.section("controlalg.psfa_allocate_ns", 64, 256, func() {
		for i := 0; i < 256; i++ {
			sink += len(controlalg.PSFA{}.Allocate(inputs, capacity))
		}
	})

	var arena cyclemem.Arena
	var slab cyclemem.Slab[wire.StageReport]
	vals["cyclemem.slab_take_ns"] = r.section("cyclemem.slab_take_ns", 64, 64, func() {
		for i := 0; i < 64; i++ {
			arena.Begin()
			sink += len(slab.Take(&arena, n))
		}
	})
	var table cyclemem.RuleTable
	vals["cyclemem.ruletable_seal_ns_per_rule"] = r.section("cyclemem.ruletable_seal_ns_per_rule", 32, n, func() {
		arena.Begin()
		table.Reset(&arena)
		slot := table.Slot(n)
		for i := range slot {
			// Reverse order, so Seal has sorting to do.
			slot[i] = wire.Rule{StageID: reports[n-1-i].StageID, JobID: reports[n-1-i].JobID, Action: wire.ActionSetLimit, Limit: reports[n-1-i].Usage}
		}
		table.Seal()
		sink += table.Len()
	})
	_ = sink
}

// store replays the durability layer in a scratch directory inside the
// output directory. No workload sets a data directory, so nothing here moves
// an end-to-end metric; the numbers are a baseline for a later workload.
func (r *replay) store(vals map[string]float64) error {
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.scratch)
	st, err := store.Open(store.Options{Dir: r.scratch})
	if err != nil {
		return err
	}
	defer st.Close()
	rules := []wire.Rule{{StageID: 1, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{500, 50}}}
	var ioErr error
	var cycle uint64
	vals["store.append_rules_ns"] = r.section("store.append_rules_ns", 64, 64, func() {
		for i := 0; i < 64; i++ {
			cycle++
			if err := st.AppendRules(cycle, uint64(i+1), rules); err != nil {
				ioErr = err
			}
		}
	})
	vals["store.sync_ms"] = r.section("store.sync_ms", 8, 1, func() {
		cycle++
		if err := st.AppendRules(cycle, 1, rules); err != nil {
			ioErr = err
		}
		if err := st.Sync(); err != nil {
			ioErr = err
		}
	}) / 1e6
	return ioErr
}

// ledger reconciles the layer costs with the cycle: each layer's CPU time
// per call times the calls one cycle makes, against the process CPU time a
// cycle of the traced window cost.
func (r *replay) ledger(w *window, vals map[string]float64) {
	call := r.cpuNs["rpc.pipelined_call_ns"]
	if w.spec.transport == tcpLoopback {
		call = r.cpuNs["rpc.tcp_pipelined_call_ns"]
	}
	collectSvc := r.cpuNs["stage.collect_service_ns"]
	enforceSvc := r.cpuNs["stage.enforce_service_ns"]
	pushes := w.perCycle(w.after.pushes - w.before.pushes)
	n := float64(w.children)
	explainedNs := vals["stage.collects_per_cycle"]*(call+collectSvc) +
		vals["stage.enforces_per_cycle"]*(call+enforceSvc) +
		pushes*r.cpuNs["stage.push_delta_ns"] +
		n*(r.cpuNs["metrics.aggregate_ns_per_report"]+r.cpuNs["cyclemem.ruletable_seal_ns_per_rule"]) +
		r.cpuNs["controlalg.psfa_allocate_ns"] + r.cpuNs["cyclemem.slab_take_ns"]
	cpuMs := vals["cpu_ms_per_cycle"]
	vals["ledger.explained_pct"] = 100 * explainedNs / 1e6 / cpuMs
	vals["ledger.unexplained_ms"] = cpuMs - explainedNs/1e6
}
