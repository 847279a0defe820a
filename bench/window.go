package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// counters is a snapshot of everything the harness reads before and after a
// window: process accounting, role meters, stage-side counters and the
// controller's cumulative pipeline counters.
type counters struct {
	cpu         time.Duration // process user+sys
	allocs      uint64
	allocBytes  uint64
	gcs         uint64
	tx, rx      uint64
	aggTx       uint64
	collects    []uint64
	enforces    []uint64
	pushes      uint64
	callErrors  uint64
	sharedSends uint64
	sharedEnc   uint64
	replyReuses uint64
	suppCollect uint64
	suppEnforce uint64
	arenaGrows  uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHeap() (objects, bytes, gcs uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64(), heapSamples[2].Value.Uint64()
}

func snapshot(f *fleet) counters {
	var c counters
	c.cpu = processCPU()
	c.allocs, c.allocBytes, c.gcs = readHeap()
	c.tx, c.rx = f.meter.Snapshot()
	for _, m := range f.aggMeters {
		c.aggTx += m.Tx()
	}
	c.collects = make([]uint64, len(f.stages))
	c.enforces = make([]uint64, len(f.stages))
	for i, v := range f.stages {
		c.collects[i], c.enforces[i] = v.Counters()
		c.pushes += v.Pushes()
	}
	st := f.global.Stats()
	c.callErrors = st.CallErrors
	p := st.Pipeline
	c.sharedSends, c.sharedEnc, c.replyReuses = p.SharedSends, p.SharedEncodes, p.ReplyReuses
	c.suppCollect, c.suppEnforce, c.arenaGrows = p.SuppressedCollects, p.SuppressedEnforces, p.Arena.Grows
	return c
}

// window is one measured run of back-to-back cycles: a closed loop with one
// caller, which issues the next cycle only when the previous one returned.
type window struct {
	spec     spec
	first    int // index of the first cycle, counted from the start of warm-up
	children int
	cycles   int
	wall     time.Duration
	before   counters
	after    counters

	totalMs, collectMs, computeMs, enforceMs []float64 // one sample per cycle
	aggBusyMs                                []float64 // slowest aggregator, per cycle
	dirty                                    []int64   // incremental only
	suppEnforce                              []uint64  // incremental only: per-cycle delta

	// Bytes are counted over the window's first byteCycles cycles only (see
	// byteCycles); these are the meter readings at that point.
	byteCycles     int
	byteTx, byteRx uint64
	byteAggTx      uint64

	// stageCollects and stageEnforces total the stage-side counter advances;
	// topCalls is how many calls the top controller itself made.
	stageCollects, stageEnforces uint64
	topCalls                     uint64

	cycleErrors    int
	inflightPeak   int64
	computeWorkers int64
	pushTimeouts   int
	expectDirty    int
}

// byteCycles is how many cycles, from the window's first, the byte metrics
// cover. Every frame carries its connection's call number and every message
// the cycle number, both as varints: a frame grows by a byte at a
// connection's 128th call (firstGrowth: cycle 64 of a full cycle, which makes
// two calls per child) and again at cycle 128. A time-bounded window would
// mix those sizes in a ratio that depends on how fast it ran. Warm-up plus
// byteCycles stays below firstGrowth on every workload, which makes the byte
// counts a fixed range of cycle numbers and so exactly repeatable.
const (
	byteCycles  = 32
	firstGrowth = 64
)

// until decides when a window closes: after a fixed number of cycles, or
// once the time budget is used up (checked between cycles).
type until struct {
	cycles  int
	seconds float64
}

func (u until) done(cycles int, elapsed time.Duration) bool {
	if u.cycles > 0 {
		return cycles >= u.cycles
	}
	return elapsed.Seconds() >= u.seconds
}

// warm runs the fixed warm-up cycles. On the incremental workload the first
// rounds also teach the pusher how many bytes a round of pushes delivers.
func warm(ctx context.Context, f *fleet, cycles int) error {
	for i := 0; i < cycles; i++ {
		if f.pusher != nil {
			f.pusher.push(i, true)
		}
		if _, err := f.global.RunCycle(ctx); err != nil {
			return fmt.Errorf("warm-up cycle %d: %w", i, err)
		}
	}
	return nil
}

// measure runs the window. first is the index of the window's first cycle
// counted from the start of warm-up, which keeps the push scale alternating
// across the boundary. Spans are recorded when tr is non-nil.
func measure(ctx context.Context, s spec, f *fleet, first int, stop until, tr *tracer) *window {
	w := &window{spec: s, first: first, children: len(f.stages)}
	if f.pusher != nil {
		w.expectDirty = f.pusher.count()
		f.pusher.timeouts = 0
	}
	pipe := f.global.Pipeline()
	prevBusy := make([]time.Duration, len(f.aggBusy))
	for i, busy := range f.aggBusy {
		prevBusy[i] = busy()
	}
	prevSupp := pipe.SuppressedEnforces()

	w.before = snapshot(f)
	start := time.Now()
	for !stop.done(w.cycles, time.Since(start)) {
		i := first + w.cycles
		if f.pusher != nil {
			id := tr.begin("stage.push_round", 0, i, w.expectDirty)
			f.pusher.push(i, false)
			tr.end(id)
		}
		id := tr.begin("controller.cycle", 0, i, 1)
		t0 := time.Now()
		b, err := f.global.RunCycle(ctx)
		d := time.Since(t0)
		tr.end(id)
		w.cycles++
		if w.cycles == byteCycles {
			w.markBytes(f)
		}
		if err != nil {
			w.cycleErrors++
			continue
		}
		w.totalMs = append(w.totalMs, ms(d))
		w.collectMs = append(w.collectMs, ms(b.Collect))
		w.computeMs = append(w.computeMs, ms(b.Compute))
		w.enforceMs = append(w.enforceMs, ms(b.Enforce))
		if len(f.aggBusy) > 0 {
			var slowest time.Duration
			for k, busy := range f.aggBusy {
				now := busy()
				slowest = max(slowest, now-prevBusy[k])
				prevBusy[k] = now
			}
			w.aggBusyMs = append(w.aggBusyMs, ms(slowest))
		}
		if f.pusher != nil {
			w.dirty = append(w.dirty, pipe.DirtyChildren())
			supp := pipe.SuppressedEnforces()
			w.suppEnforce = append(w.suppEnforce, supp-prevSupp)
			prevSupp = supp
		}
	}
	w.wall = time.Since(start)
	w.after = snapshot(f)
	if w.byteCycles == 0 {
		w.markBytes(f)
	}
	for i := range w.after.collects {
		w.stageCollects += w.after.collects[i] - w.before.collects[i]
		w.stageEnforces += w.after.enforces[i] - w.before.enforces[i]
	}
	// A full cycle makes one collect and one enforce call per direct child
	// (stage or aggregator); an incremental one only the enforces that
	// reach the stages.
	w.topCalls = 2 * uint64(f.global.NumChildren()) * uint64(w.cycles)
	if f.pusher != nil {
		w.topCalls = w.stageEnforces
	}

	st := f.global.Stats().Pipeline
	w.inflightPeak = max(st.CollectInFlightPeak, st.EnforceInFlightPeak)
	w.computeWorkers = st.ComputeWorkers
	if f.pusher != nil {
		w.pushTimeouts = f.pusher.timeouts
	}
	return w
}

// markBytes closes the range the byte metrics cover.
func (w *window) markBytes(f *fleet) {
	w.byteCycles = w.cycles
	w.byteTx, w.byteRx = f.meter.Snapshot()
	for _, m := range f.aggMeters {
		w.byteAggTx += m.Tx()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check is the correctness pass run after every window. Each finding is one
// failed check and counts as a failed operation.
func check(w *window, f *fleet) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	cycles := uint64(w.cycles)
	incremental := f.pusher != nil

	// Every stage holds a rule, and under saturated PSFA the limits add up
	// to the configured capacity.
	var sum wire.Rates
	missing := 0
	for _, v := range f.stages {
		r, ok := v.LastRule()
		if !ok {
			missing++
			continue
		}
		sum = sum.Add(r.Limit)
	}
	if missing > 0 {
		fail("%d stages hold no rule", missing)
	}
	capacity := f.global.Capacity()
	for c := range sum {
		if rel := math.Abs(sum[c]-capacity[c]) / capacity[c]; rel > 1e-6 {
			fail("class %d limits sum to %g, capacity %g (rel %.2e)", c, sum[c], capacity[c], rel)
		}
	}

	// Stage-side counters advanced by exactly what the cycles should cause.
	wrongCollects, wrongEnforces := 0, 0
	wantCollects := cycles
	if incremental {
		wantCollects = 0
	}
	for i := range f.stages {
		if w.after.collects[i]-w.before.collects[i] != wantCollects {
			wrongCollects++
		}
		if !incremental && w.after.enforces[i]-w.before.enforces[i] != cycles {
			wrongEnforces++
		}
	}
	if wrongCollects > 0 {
		fail("%d stages served an unexpected number of collects", wrongCollects)
	}
	if wrongEnforces > 0 {
		fail("%d stages served an unexpected number of enforces", wrongEnforces)
	}
	if cycles > 0 && w.stageEnforces%cycles != 0 {
		fail("enforces per cycle not constant: %d over %d cycles", w.stageEnforces, cycles)
	}
	// (A window opened late, like a traced pass's second, straddles a frame
	// growth point and is exempt.)
	if n := uint64(w.byteCycles); !incremental && n > 0 && w.first+w.byteCycles <= firstGrowth {
		if bytes := (w.byteTx - w.before.tx) + (w.byteRx - w.before.rx); bytes%n != 0 {
			fail("top controller moved %d bytes over %d cycles: not a whole number per cycle", bytes, n)
		}
	}

	if incremental {
		for i := 1; i < len(w.suppEnforce); i++ {
			if w.suppEnforce[i] != w.suppEnforce[0] {
				fail("enforce fan-out changed inside the window (cycle %d suppressed %d, cycle 0 %d)",
					i, w.suppEnforce[i], w.suppEnforce[0])
				break
			}
		}
		if misses := w.dirtyMisses(); misses*100 >= w.cycles {
			fail("%d of %d cycles saw a dirty set other than %d (%d barrier timeouts)",
				misses, w.cycles, w.expectDirty, w.pushTimeouts)
		}
	}
	return bad
}

func (w *window) dirtyMisses() int {
	n := 0
	for _, d := range w.dirty {
		if int(d) != w.expectDirty {
			n++
		}
	}
	return n
}

// attempted is the number of child operations the window issued, counted at
// the stages.
func (w *window) attempted() uint64 {
	return w.stageCollects + w.stageEnforces + (w.after.pushes - w.before.pushes)
}

// halvesRatio is the median cycle of the window's second half over that of
// its first half: the stationarity diagnostic.
func (w *window) halvesRatio() float64 {
	h := len(w.totalMs) / 2
	if h == 0 {
		return 1
	}
	return median(w.totalMs[h:]) / median(w.totalMs[:h])
}

// perCycle divides a counter delta by the window's cycle count.
func (w *window) perCycle(delta uint64) float64 { return float64(delta) / float64(w.cycles) }

func (w *window) perByteCycle(delta uint64) float64 { return float64(delta) / float64(w.byteCycles) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// values derives every metric a window alone can give, end-to-end and
// per-layer alike; the caller prints the subset its pass reports.
func (w *window) values() map[string]float64 {
	b, a := w.before, w.after
	var dirtySum int64
	for _, d := range w.dirty {
		dirtySum += d
	}
	calls := uint64(w.children) * uint64(w.cycles)
	return map[string]float64{
		"cycle_p50_ms":        median(w.totalMs),
		"children_per_s":      float64(calls) / w.wall.Seconds(),
		"cpu_ms_per_cycle":    ms(a.cpu-b.cpu) / float64(w.cycles),
		"net_bytes_per_cycle": w.perByteCycle((w.byteTx - b.tx) + (w.byteRx - b.rx)),
		"rss_peak_mb":         peakRSSMB(),

		"transport.global_tx_bytes_per_cycle": w.perByteCycle(w.byteTx - b.tx),
		"transport.global_rx_bytes_per_cycle": w.perByteCycle(w.byteRx - b.rx),
		"transport.agg_tx_bytes_per_cycle":    w.perByteCycle(w.byteAggTx - b.aggTx),
		"stage.collects_per_cycle":            w.perCycle(w.stageCollects),
		"stage.enforces_per_cycle":            w.perCycle(w.stageEnforces),

		"controller.collect_p50_ms":  median(w.collectMs),
		"controller.compute_p50_ms":  median(w.computeMs),
		"controller.enforce_p50_ms":  median(w.enforceMs),
		"controller.cycle_p95_ms":    quantile(w.totalMs, 0.95),
		"controller.cycle_samples":   float64(len(w.totalMs)),
		"controller.halves_ratio":    w.halvesRatio(),
		"controller.agg_busy_p50_ms": median(w.aggBusyMs),

		"controller.allocs_per_cycle":      w.perCycle(a.allocs - b.allocs),
		"controller.alloc_bytes_per_cycle": w.perCycle(a.allocBytes - b.allocBytes),
		"controller.gc_per_100_cycles":     100 * w.perCycle(a.gcs-b.gcs),

		"controller.shared_sends_per_encode": ratio(a.sharedSends-b.sharedSends, a.sharedEnc-b.sharedEnc),
		"controller.reply_reuse_ratio":       ratio(a.replyReuses-b.replyReuses, w.topCalls),
		"controller.inflight_peak":           float64(w.inflightPeak),
		"controller.compute_workers":         float64(w.computeWorkers),
		"controller.arena_grows_per_cycle":   w.perCycle(a.arenaGrows - b.arenaGrows),

		"controller.dirty_per_cycle":          float64(dirtySum) / float64(w.cycles),
		"controller.dirty_miss_cycles":        float64(w.dirtyMisses()),
		"controller.suppressed_collect_ratio": ratio(a.suppCollect-b.suppCollect, calls),
		"controller.suppressed_enforce_ratio": ratio(a.suppEnforce-b.suppEnforce, calls),
	}
}
