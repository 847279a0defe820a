// Package trace provides lightweight, allocation-conscious span tracing for
// control cycles: one root span per cycle, child spans per phase and per
// child RPC, recorded into a fixed-size ring buffer with O(1) append and no
// locks on the hot path.
//
// Each controller owns its own Tracer (per-controller buffers), so appends
// never contend across controllers. Within one Tracer, appends from many
// goroutines (the RPC read loops, server connections, and the controller's
// cycle goroutine) coordinate through a single atomic cursor; every slot
// field is itself atomic and published under a seqlock-style sequence word,
// so readers never block writers and the race detector sees no unsynchronized
// access.
//
// Ring invariants:
//
//   - The cursor only grows; slot i holds the append numbered n where
//     n % capacity == i and n is the highest such number so far.
//   - A writer takes its slot by swapping seq from a published (or zero)
//     value to the writer mark, stores the span fields, then publishes by
//     storing its append number into seq. Readers snapshot a slot by
//     loading seq, copying the fields, and re-loading seq; any mismatch (or
//     zero, or the writer mark) discards the copy.
//   - A slot has one writer at a time. Two appends one ring generation
//     apart land on the same slot; if the second finds the first still
//     writing — or finds a newer span already published — it drops its
//     span rather than interleave field stores with another writer. The
//     ring is a sample of recent spans: the totals count every call
//     whether or not its span survives, and a published span is never
//     torn.
//
// A nil *Tracer is a valid, disabled tracer: every method is a no-op (or
// returns zero values), so call sites need no nil branches.
//
// # Sampling
//
// Per-call timing is not free: each timed call costs a handful of clock
// reads and a ring append on both sides of the connection, which on small
// hosts is measurable against a microsecond-scale dispatch path. A tracer
// therefore supports frame-ID sampling (SetSampleEvery): every call is still
// counted exactly (one atomic add), but only calls whose frame ID falls on
// the sample grid get timestamps and a span. Because the client and server
// see the same frame IDs, both sides sample the same calls, so a sampled
// client span always has its matching server span. New tracers sample every
// call (full fidelity); deployments that must stay inside a tight overhead
// budget lower the rate.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindCycle is one whole control cycle (collect → compute → enforce).
	KindCycle Kind = iota + 1
	// KindPhase is one cycle phase at a controller.
	KindPhase
	// KindCall is one client-side child RPC: issue → completion, with
	// marshal and connection-write sub-timings. The remainder
	// (Dur − PartA − PartB) is time in flight: wire plus server handler
	// and response delivery.
	KindCall
	// KindServer is one server-side request: frame arrival → response
	// written, with handler and response-write sub-timings.
	KindServer
)

// String names the kind for dumps.
func (k Kind) String() string {
	switch k {
	case KindCycle:
		return "cycle"
	case KindPhase:
		return "phase"
	case KindCall:
		return "call"
	case KindServer:
		return "server"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Phase identifies the cycle phase a span belongs to.
type Phase uint8

// Phases. PhaseProbe marks breaker half-open probe traffic, issued outside
// the collect/enforce fan-outs while a child's circuit breaker is open.
const (
	PhaseNone Phase = iota
	PhaseCollect
	PhaseCompute
	PhaseEnforce
	PhaseProbe
)

// String names the phase for dumps and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseCollect:
		return "collect"
	case PhaseCompute:
		return "compute"
	case PhaseEnforce:
		return "enforce"
	case PhaseProbe:
		return "probe"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Span flags.
const (
	// FlagErr marks a span whose operation failed (call error, fenced or
	// otherwise failed cycle).
	FlagErr uint8 = 1 << iota
	// FlagAbandoned marks a call whose caller gave up (context cancellation)
	// before completion arrived; the span closes at abandonment time.
	FlagAbandoned
)

// Span is one decoded ring entry.
type Span struct {
	// Seq is the publication sequence number; higher is newer.
	Seq uint64
	// Kind classifies the span.
	Kind Kind
	// Phase is the cycle phase (KindPhase, KindCall); PhaseNone otherwise.
	Phase Phase
	// Mode is the fan-out mode the owning controller dispatched with
	// (0 pipelined, 1 blocking).
	Mode uint8
	// Flags carries FlagErr / FlagAbandoned.
	Flags uint8
	// Cycle is the control-cycle number the span belongs to (0 if unknown,
	// e.g. server spans).
	Cycle uint64
	// Epoch is the leadership epoch the span was recorded under.
	Epoch uint64
	// Tag identifies the participant: the child ID for KindCall spans, the
	// peer connection hash (AddrTag) for KindServer spans.
	Tag uint64
	// Call is the RPC frame ID (KindCall, KindServer), correlating a client
	// span with the matching server span across the two processes.
	Call uint64
	// Start is the span's start time.
	Start time.Time
	// Dur is the span's total duration.
	Dur time.Duration
	// PartA is the first sub-timing: marshal time (KindCall) or handler
	// time (KindServer).
	PartA time.Duration
	// PartB is the second sub-timing: connection-write time (KindCall) or
	// response encode-and-write time (KindServer).
	PartB time.Duration
}

// Err reports whether the span's operation failed.
func (s Span) Err() bool { return s.Flags&FlagErr != 0 }

// Abandoned reports whether the span's caller gave up before completion.
func (s Span) Abandoned() bool { return s.Flags&FlagAbandoned != 0 }

// slot is one ring entry. Every field is atomic so concurrent append and
// snapshot are free of data races; seq is the seqlock word.
type slot struct {
	seq   atomic.Uint64
	meta  atomic.Uint64 // kind | phase<<8 | mode<<16 | flags<<24
	cycle atomic.Uint64
	epoch atomic.Uint64
	tag   atomic.Uint64
	call  atomic.Uint64
	start atomic.Int64  // unix nanoseconds
	dur   atomic.Int64  // nanoseconds
	parts atomic.Uint64 // partA | partB<<32, nanoseconds clamped to uint32
}

func packMeta(k Kind, p Phase, mode, flags uint8) uint64 {
	return uint64(k) | uint64(p)<<8 | uint64(mode)<<16 | uint64(flags)<<24
}

func clamp32(ns int64) uint64 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return uint64(^uint32(0))
	}
	return uint64(ns)
}

// Totals is the tracer's cumulative, hot-path-cheap accounting: plain atomic
// sums that the tracebreak experiment and the Prometheus endpoint read
// without scanning the ring. Each field is individually consistent; the
// struct as a whole is not an atomic snapshot.
type Totals struct {
	// Cycles counts recorded cycle spans.
	Cycles uint64
	// ClientCalls counts every completed client call (sampled or not);
	// ClientErrors the failed ones; Abandoned the context-abandoned ones.
	ClientCalls, ClientErrors, Abandoned uint64
	// ClientSampled counts the client calls that were timed and got a span.
	// Equal to ClientCalls when the tracer samples every call.
	ClientSampled uint64
	// ClientDur is the summed issue→completion time of the sampled client
	// calls; ClientMarshal and ClientWrite are the summed frame-encode and
	// connection-write sub-timings. ClientDur − ClientMarshal − ClientWrite
	// is sampled time in flight (wire + server); scale by
	// ClientCalls/ClientSampled to estimate all-calls totals.
	ClientDur, ClientMarshal, ClientWrite time.Duration
	// ServerCalls counts every handled request; ServerSampled the ones that
	// were timed and got a span; ServerDur, ServerHandler and ServerWrite are
	// the sampled requests' summed total, handler, and response-write times.
	ServerCalls, ServerSampled            uint64
	ServerDur, ServerHandler, ServerWrite time.Duration
}

// Tracer records spans into a fixed-size ring. The zero value is not usable;
// use New. A nil Tracer is a disabled tracer: all methods no-op.
type Tracer struct {
	slots []slot
	mask  uint64

	// sampleMask selects which frame IDs are timed and recorded as spans:
	// id&sampleMask == 0. Zero (the default) samples every call. Written
	// only before the tracer is shared (SetSampleEvery), read on the hot
	// path without synchronization.
	sampleMask uint64

	cursor atomic.Uint64 // total appends; next slot = cursor % len(slots)

	// Cycle context, set once per phase by the owning controller and folded
	// into every client call span recorded while it is current. One Tracer
	// must therefore belong to exactly one controller (server-only tracers,
	// which never set a context, may be shared).
	ctxCycle atomic.Uint64
	ctxEpoch atomic.Uint64
	ctxMeta  atomic.Uint64 // mode | phase<<8

	// Cumulative totals (see Totals).
	nCycles, nClientCalls, nClientErrs, nAbandoned atomic.Uint64
	nClientSampled                                 atomic.Uint64
	clientDur, clientMarshal, clientWrite          atomic.Int64
	nServerCalls, nServerSampled                   atomic.Uint64
	serverDur, serverHandler, serverWrite          atomic.Int64
}

// DefaultCapacity is the ring size New selects for capacity <= 0.
const DefaultCapacity = 1 << 14

// New creates a tracer whose ring holds capacity spans, rounded up to a
// power of two (minimum 1024). capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1024
	for n < capacity {
		n <<= 1
	}
	return &Tracer{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetSampleEvery sets the call-sampling rate: calls whose frame ID is a
// multiple of every (rounded up to a power of two) are timed and recorded as
// spans; all other calls are counted but not timed. every <= 1 restores full
// fidelity. Call it before the tracer is shared with clients or servers — it
// is not synchronized against concurrent recording.
func (t *Tracer) SetSampleEvery(every int) {
	if t == nil {
		return
	}
	if every <= 1 {
		t.sampleMask = 0
		return
	}
	n := 1
	for n < every {
		n <<= 1
	}
	t.sampleMask = uint64(n - 1)
}

// SampleEvery returns the sampling rate set by SetSampleEvery (1 when every
// call is sampled, 0 for a nil tracer).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleMask) + 1
}

// Sampled reports whether the call with the given frame ID should be timed
// and recorded as a span. Both ends of a connection see the same frame IDs,
// so a sampled client call meets a sampled server request.
func (t *Tracer) Sampled(id uint64) bool {
	return t != nil && id&t.sampleMask == 0
}

// Cap returns the ring capacity (0 for a nil tracer).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Appends returns the total number of spans ever appended; min(Appends, Cap)
// entries are currently resident.
func (t *Tracer) Appends() uint64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// SetContext publishes the owning controller's current cycle context:
// subsequent client call spans recorded through this tracer carry the given
// cycle number, epoch, fan-out mode, and phase. Call it at each phase start
// (three atomic stores; not per call).
func (t *Tracer) SetContext(cycle, epoch uint64, mode uint8, phase Phase) {
	if t == nil {
		return
	}
	t.ctxCycle.Store(cycle)
	t.ctxEpoch.Store(epoch)
	t.ctxMeta.Store(uint64(mode) | uint64(phase)<<8)
}

// slotWriting is the seq value of a slot whose writer is storing fields.
const slotWriting = ^uint64(0)

// append reserves the next slot and publishes one span. Sequence numbers
// start at 1 so 0 always means "never written".
func (t *Tracer) append(meta, cycle, epoch, tag, call uint64, startNs, durNs int64, partANs, partBNs int64) {
	n := t.cursor.Add(1) // reservation number; also the publication seq
	s := &t.slots[(n-1)&t.mask]
	// Take the slot: this also invalidates it while the fields are in flux.
	// A slot another writer holds, or one already holding a newer span, is
	// left alone and this span dropped.
	if old := s.seq.Load(); old == slotWriting || old > n || !s.seq.CompareAndSwap(old, slotWriting) {
		return
	}
	s.meta.Store(meta)
	s.cycle.Store(cycle)
	s.epoch.Store(epoch)
	s.tag.Store(tag)
	s.call.Store(call)
	s.start.Store(startNs)
	s.dur.Store(durNs)
	s.parts.Store(clamp32(partANs) | clamp32(partBNs)<<32)
	s.seq.Store(n)
}

// RecordCycle records one control cycle's root span.
func (t *Tracer) RecordCycle(cycle, epoch uint64, mode uint8, start time.Time, dur time.Duration, failed bool) {
	if t == nil {
		return
	}
	var flags uint8
	if failed {
		flags = FlagErr
	}
	t.nCycles.Add(1)
	t.append(packMeta(KindCycle, PhaseNone, mode, flags), cycle, epoch, 0, 0,
		start.UnixNano(), int64(dur), 0, 0)
}

// RecordPhase records one cycle phase's span.
func (t *Tracer) RecordPhase(phase Phase, cycle, epoch uint64, mode uint8, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.append(packMeta(KindPhase, phase, mode, 0), cycle, epoch, 0, 0,
		start.UnixNano(), int64(dur), 0, 0)
}

// RecordClientCall records one client-side RPC span. tag is the connection's
// span tag (the controller sets its child's ID), call the frame ID; startNs
// is the issue time in unix nanoseconds and durNs/marshalNs/writeNs the
// total, frame-encode, and connection-write times. The current cycle context
// supplies cycle, epoch, mode, and phase. Called from the RPC client's
// completion paths — off the fan-out critical path in pipelined mode.
func (t *Tracer) RecordClientCall(tag, call uint64, startNs, durNs, marshalNs, writeNs int64, failed, abandoned bool) {
	if t == nil {
		return
	}
	var flags uint8
	if failed {
		flags |= FlagErr
	}
	if abandoned {
		flags |= FlagAbandoned
	}
	t.nClientCalls.Add(1)
	t.nClientSampled.Add(1)
	if failed {
		t.nClientErrs.Add(1)
	}
	if abandoned {
		t.nAbandoned.Add(1)
	}
	t.clientDur.Add(durNs)
	t.clientMarshal.Add(marshalNs)
	t.clientWrite.Add(writeNs)
	meta := t.ctxMeta.Load()
	t.append(packMeta(KindCall, Phase(meta>>8), uint8(meta), flags),
		t.ctxCycle.Load(), t.ctxEpoch.Load(), tag, call, startNs, durNs, marshalNs, writeNs)
}

// CountClientCall accounts a completed client call that was not sampled:
// it lands in ClientCalls (and ClientErrors/Abandoned) but carries no
// timings and no span. One to three atomic adds — the entire hot-path cost
// of tracing an unsampled call.
func (t *Tracer) CountClientCall(failed, abandoned bool) {
	if t == nil {
		return
	}
	t.nClientCalls.Add(1)
	if failed {
		t.nClientErrs.Add(1)
	}
	if abandoned {
		t.nAbandoned.Add(1)
	}
}

// CountServerCall accounts a handled request that was not sampled.
func (t *Tracer) CountServerCall() {
	if t == nil {
		return
	}
	t.nServerCalls.Add(1)
}

// RecordServerCall records one server-side request span: arrival → response
// written, with handler and response-write sub-timings. tag identifies the
// peer connection (AddrTag of its remote address).
func (t *Tracer) RecordServerCall(tag, call uint64, startNs, durNs, handlerNs, writeNs int64) {
	if t == nil {
		return
	}
	t.nServerCalls.Add(1)
	t.nServerSampled.Add(1)
	t.serverDur.Add(durNs)
	t.serverHandler.Add(handlerNs)
	t.serverWrite.Add(writeNs)
	t.append(packMeta(KindServer, PhaseNone, 0, 0), 0, 0, tag, call, startNs, durNs, handlerNs, writeNs)
}

// Totals returns the cumulative accounting since creation (or the last
// Reset).
func (t *Tracer) Totals() Totals {
	if t == nil {
		return Totals{}
	}
	return Totals{
		Cycles:        t.nCycles.Load(),
		ClientCalls:   t.nClientCalls.Load(),
		ClientErrors:  t.nClientErrs.Load(),
		Abandoned:     t.nAbandoned.Load(),
		ClientSampled: t.nClientSampled.Load(),
		ClientDur:     time.Duration(t.clientDur.Load()),
		ClientMarshal: time.Duration(t.clientMarshal.Load()),
		ClientWrite:   time.Duration(t.clientWrite.Load()),
		ServerCalls:   t.nServerCalls.Load(),
		ServerSampled: t.nServerSampled.Load(),
		ServerDur:     time.Duration(t.serverDur.Load()),
		ServerHandler: time.Duration(t.serverHandler.Load()),
		ServerWrite:   time.Duration(t.serverWrite.Load()),
	}
}

// Reset zeroes the cumulative totals and invalidates every ring entry. It
// may run concurrently with appends; spans recorded while Reset is in
// progress may survive it.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.nCycles.Store(0)
	t.nClientCalls.Store(0)
	t.nClientErrs.Store(0)
	t.nAbandoned.Store(0)
	t.nClientSampled.Store(0)
	t.clientDur.Store(0)
	t.clientMarshal.Store(0)
	t.clientWrite.Store(0)
	t.nServerCalls.Store(0)
	t.nServerSampled.Store(0)
	t.serverDur.Store(0)
	t.serverHandler.Store(0)
	t.serverWrite.Store(0)
	for i := range t.slots {
		// A slot being written keeps its writer: that span survives.
		s := &t.slots[i]
		if old := s.seq.Load(); old != slotWriting {
			s.seq.CompareAndSwap(old, 0)
		}
	}
}

// Snapshot copies every valid ring entry, ordered oldest to newest. It takes
// no locks: each slot is validated with its sequence word, so a slot being
// overwritten mid-copy is skipped rather than returned torn.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		for {
			n1 := s.seq.Load()
			if n1 == 0 || n1 == slotWriting {
				break // never written, or being written
			}
			meta := s.meta.Load()
			sp := Span{
				Seq:   n1,
				Kind:  Kind(meta),
				Phase: Phase(meta >> 8),
				Mode:  uint8(meta >> 16),
				Flags: uint8(meta >> 24),
				Cycle: s.cycle.Load(),
				Epoch: s.epoch.Load(),
				Tag:   s.tag.Load(),
				Call:  s.call.Load(),
				Start: time.Unix(0, s.start.Load()),
				Dur:   time.Duration(s.dur.Load()),
			}
			parts := s.parts.Load()
			sp.PartA = time.Duration(uint32(parts))
			sp.PartB = time.Duration(uint32(parts >> 32))
			if s.seq.Load() != n1 {
				continue // overwritten mid-copy; retry (new span or skip)
			}
			out = append(out, sp)
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Dump writes a human-readable span listing, oldest first.
func (t *Tracer) Dump(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "trace: disabled")
		return err
	}
	spans := t.Snapshot()
	if _, err := fmt.Fprintf(w, "trace: %d spans resident (%d appended, capacity %d)\n",
		len(spans), t.Appends(), t.Cap()); err != nil {
		return err
	}
	for _, s := range spans {
		var flags string
		if s.Err() {
			flags += " ERR"
		}
		if s.Abandoned() {
			flags += " ABANDONED"
		}
		if _, err := fmt.Fprintf(w, "#%-8d %-7s %-8s cycle=%d epoch=%d tag=%d call=%d dur=%v a=%v b=%v%s\n",
			s.Seq, s.Kind, s.Phase, s.Cycle, s.Epoch, s.Tag, s.Call, s.Dur, s.PartA, s.PartB, flags); err != nil {
			return err
		}
	}
	return nil
}

// ChildLatency is one child's slowest resident call.
type ChildLatency struct {
	// Tag is the child's span tag (its ID).
	Tag uint64
	// Dur is the slowest resident call's duration; Cycle and Phase locate it.
	Dur   time.Duration
	Cycle uint64
	Phase Phase
}

// SlowestChildren scans the resident client call spans and returns the k
// children with the slowest single call, slowest first. It is a snapshot
// query (O(capacity) scan at scrape time), keeping the per-call hot path
// free of any top-k bookkeeping.
func (t *Tracer) SlowestChildren(k int) []ChildLatency {
	if t == nil || k <= 0 {
		return nil
	}
	worst := make(map[uint64]ChildLatency)
	for _, s := range t.Snapshot() {
		if s.Kind != KindCall {
			continue
		}
		if w, ok := worst[s.Tag]; !ok || s.Dur > w.Dur {
			worst[s.Tag] = ChildLatency{Tag: s.Tag, Dur: s.Dur, Cycle: s.Cycle, Phase: s.Phase}
		}
	}
	out := make([]ChildLatency, 0, len(worst))
	for _, w := range worst {
		out = append(out, w)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dur != out[b].Dur {
			return out[a].Dur > out[b].Dur
		}
		return out[a].Tag < out[b].Tag
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Histograms digests the resident spans into per-kind duration histograms:
// one per cycle phase (KindPhase spans), one for client calls, and one for
// server requests. Like SlowestChildren it works from a snapshot, so
// percentiles cover the ring's residency window, not all time.
func (t *Tracer) Histograms() map[string]*telemetry.Histogram {
	if t == nil {
		return nil
	}
	out := make(map[string]*telemetry.Histogram)
	get := func(name string) *telemetry.Histogram {
		h := out[name]
		if h == nil {
			h = &telemetry.Histogram{}
			out[name] = h
		}
		return h
	}
	for _, s := range t.Snapshot() {
		switch s.Kind {
		case KindCycle:
			get("cycle").Record(s.Dur)
		case KindPhase:
			get("phase_" + s.Phase.String()).Record(s.Dur)
		case KindCall:
			get("call").Record(s.Dur)
			get("call_marshal").Record(s.PartA)
			get("call_write").Record(s.PartB)
		case KindServer:
			get("server").Record(s.Dur)
			get("server_handler").Record(s.PartA)
		}
	}
	return out
}

// AddrTag hashes a network address string to a span tag (FNV-1a). Server
// spans tag the peer's remote address with it; a client's local address
// hashes to the same tag, correlating the two sides of a connection.
func AddrTag(addr string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime64
	}
	return h
}
