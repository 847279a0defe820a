package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.SetContext(1, 1, 0, PhaseCollect)
	tr.RecordCycle(1, 1, 0, time.Now(), time.Millisecond, false)
	tr.RecordPhase(PhaseCollect, 1, 1, 0, time.Now(), time.Millisecond)
	tr.RecordClientCall(1, 1, 0, 1000, 10, 10, false, false)
	tr.RecordServerCall(1, 1, 0, 1000, 10, 10)
	tr.Reset()
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
	if got := tr.Totals(); got != (Totals{}) {
		t.Fatalf("nil tracer totals = %+v, want zero", got)
	}
	if got := tr.SlowestChildren(3); got != nil {
		t.Fatalf("nil tracer slowest = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := tr.WritePrometheus(&buf, "x"); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultCapacity}, {-5, DefaultCapacity}, {1, 1024}, {1024, 1024},
		{1025, 2048}, {5000, 8192},
	} {
		if got := len(New(tc.in).slots); got != tc.want {
			t.Errorf("New(%d) capacity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	tr := New(1024)
	start := time.Now()

	tr.SetContext(7, 3, 1, PhaseCollect)
	tr.RecordClientCall(42, 99, start.UnixNano(), int64(5*time.Millisecond),
		int64(100*time.Microsecond), int64(50*time.Microsecond), false, false)
	tr.RecordPhase(PhaseCollect, 7, 3, 1, start, 6*time.Millisecond)
	tr.RecordCycle(7, 3, 1, start, 20*time.Millisecond, false)
	tr.RecordServerCall(AddrTag("1.2.3.4:5"), 99, start.UnixNano(),
		int64(3*time.Millisecond), int64(2*time.Millisecond), int64(time.Millisecond))

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	call, phase, cycle, server := spans[0], spans[1], spans[2], spans[3]

	if call.Kind != KindCall || call.Phase != PhaseCollect || call.Mode != 1 {
		t.Fatalf("call span misclassified: %+v", call)
	}
	if call.Cycle != 7 || call.Epoch != 3 || call.Tag != 42 || call.Call != 99 {
		t.Fatalf("call span context wrong: %+v", call)
	}
	if call.Dur != 5*time.Millisecond || call.PartA != 100*time.Microsecond || call.PartB != 50*time.Microsecond {
		t.Fatalf("call span timings wrong: %+v", call)
	}
	if phase.Kind != KindPhase || phase.Phase != PhaseCollect || phase.Dur != 6*time.Millisecond {
		t.Fatalf("phase span wrong: %+v", phase)
	}
	if cycle.Kind != KindCycle || cycle.Cycle != 7 || cycle.Epoch != 3 || cycle.Err() {
		t.Fatalf("cycle span wrong: %+v", cycle)
	}
	if server.Kind != KindServer || server.Tag != AddrTag("1.2.3.4:5") ||
		server.PartA != 2*time.Millisecond || server.PartB != time.Millisecond {
		t.Fatalf("server span wrong: %+v", server)
	}

	tot := tr.Totals()
	if tot.Cycles != 1 || tot.ClientCalls != 1 || tot.ServerCalls != 1 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	if tot.ClientDur != 5*time.Millisecond || tot.ClientMarshal != 100*time.Microsecond {
		t.Fatalf("client totals wrong: %+v", tot)
	}
	if tot.ServerDur != 3*time.Millisecond || tot.ServerHandler != 2*time.Millisecond ||
		tot.ServerWrite != time.Millisecond {
		t.Fatalf("server totals wrong: %+v", tot)
	}
}

func TestFlags(t *testing.T) {
	tr := New(1024)
	tr.RecordClientCall(1, 1, 0, 1000, 0, 0, true, false)
	tr.RecordClientCall(2, 2, 0, 1000, 0, 0, true, true)
	tr.RecordCycle(1, 1, 0, time.Now(), time.Millisecond, true)

	spans := tr.Snapshot()
	if !spans[0].Err() || spans[0].Abandoned() {
		t.Fatalf("span 0 flags: %+v", spans[0])
	}
	if !spans[1].Err() || !spans[1].Abandoned() {
		t.Fatalf("span 1 flags: %+v", spans[1])
	}
	if !spans[2].Err() {
		t.Fatalf("cycle span not marked failed: %+v", spans[2])
	}
	tot := tr.Totals()
	if tot.ClientErrors != 2 || tot.Abandoned != 1 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(1024)
	n := len(tr.slots)*2 + 17
	for i := 0; i < n; i++ {
		tr.RecordPhase(PhaseCompute, uint64(i), 1, 0, time.Now(), time.Duration(i))
	}
	spans := tr.Snapshot()
	if len(spans) != len(tr.slots) {
		t.Fatalf("resident %d, want %d", len(spans), len(tr.slots))
	}
	// Oldest resident append is n-cap+1 (seq numbers are 1-based).
	if want := uint64(n - len(tr.slots) + 1); spans[0].Seq != want {
		t.Fatalf("oldest seq %d, want %d", spans[0].Seq, want)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq != spans[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, spans[i-1].Seq, spans[i].Seq)
		}
	}
	if tr.cursor.Load() != uint64(n) {
		t.Fatalf("appends %d, want %d", tr.cursor.Load(), n)
	}
}

func TestReset(t *testing.T) {
	tr := New(1024)
	tr.RecordClientCall(1, 1, 0, 1000, 10, 10, false, false)
	tr.RecordCycle(1, 1, 0, time.Now(), time.Millisecond, false)
	tr.Reset()
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("post-reset snapshot has %d spans", len(got))
	}
	if got := tr.Totals(); got != (Totals{}) {
		t.Fatalf("post-reset totals: %+v", got)
	}
	// The ring keeps accepting appends after a reset.
	tr.RecordCycle(2, 1, 0, time.Now(), time.Millisecond, false)
	if got := tr.Snapshot(); len(got) != 1 || got[0].Cycle != 2 {
		t.Fatalf("post-reset append missing: %v", got)
	}
}

// TestConcurrentAppendSnapshot hammers the ring from many writers while
// readers snapshot, checking that every returned span is internally
// consistent (the fields a writer stores together come back together).
func TestConcurrentAppendSnapshot(t *testing.T) {
	tr := New(4096)
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Encode the writer+iteration into every field so a torn
				// read is detectable.
				v := uint64(w)*perWriter + uint64(i) + 1
				tr.RecordServerCall(v, v, int64(v), int64(v), int64(v%1000), int64(v%1000))
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range tr.Snapshot() {
					if s.Kind != KindServer {
						t.Errorf("torn span kind: %+v", s)
						return
					}
					if s.Tag != s.Call || int64(s.Tag) != s.Start.UnixNano() || int64(s.Dur) != int64(s.Tag) {
						t.Errorf("torn span fields: %+v", s)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := tr.Totals().ServerCalls; got != writers*perWriter {
		t.Fatalf("server calls %d, want %d", got, writers*perWriter)
	}
}

func TestSlowestChildren(t *testing.T) {
	tr := New(1024)
	tr.SetContext(1, 1, 0, PhaseCollect)
	for i := 1; i <= 20; i++ {
		tr.RecordClientCall(uint64(i), uint64(i), 0, int64(i)*int64(time.Millisecond), 0, 0, false, false)
		// Second, faster call per child must not displace the slower one.
		tr.RecordClientCall(uint64(i), uint64(100+i), 0, int64(time.Microsecond), 0, 0, false, false)
	}
	top := tr.SlowestChildren(3)
	if len(top) != 3 {
		t.Fatalf("got %d entries, want 3", len(top))
	}
	for i, want := range []uint64{20, 19, 18} {
		if top[i].Tag != want || top[i].Dur != time.Duration(want)*time.Millisecond {
			t.Fatalf("rank %d = %+v, want tag %d", i, top[i], want)
		}
	}
}

func TestHistograms(t *testing.T) {
	tr := New(1024)
	for i := 0; i < 100; i++ {
		tr.RecordPhase(PhaseCollect, 1, 1, 0, time.Now(), time.Millisecond)
		tr.RecordClientCall(1, uint64(i), 0, int64(time.Millisecond), int64(time.Microsecond), int64(time.Microsecond), false, false)
	}
	h := tr.Histograms()
	if h["phase_collect"] == nil || h["phase_collect"].Count() != 100 {
		t.Fatalf("phase_collect histogram: %+v", h["phase_collect"])
	}
	if h["call"] == nil || h["call"].Count() != 100 {
		t.Fatalf("call histogram missing")
	}
	if h["call_marshal"] == nil || h["call_marshal"].Count() != 100 {
		t.Fatalf("call_marshal histogram missing")
	}
}

func TestAddrTag(t *testing.T) {
	a, b := AddrTag("10.0.0.1:4000"), AddrTag("10.0.0.1:4001")
	if a == b {
		t.Fatal("distinct addresses hash equal")
	}
	if a != AddrTag("10.0.0.1:4000") {
		t.Fatal("AddrTag not deterministic")
	}
}

func TestWritePrometheus(t *testing.T) {
	tr := New(1024)
	tr.SetContext(1, 1, 0, PhaseEnforce)
	tr.RecordClientCall(5, 1, 0, int64(2*time.Millisecond), int64(time.Microsecond), int64(time.Microsecond), false, false)
	tr.RecordCycle(1, 1, 0, time.Now(), 3*time.Millisecond, false)

	var buf bytes.Buffer
	if err := tr.WritePrometheus(&buf, "global"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`sdscale_trace_cycles_total{tracer="global"} 1`,
		`sdscale_trace_client_calls_total{tracer="global"} 1`,
		`sdscale_trace_span_count{span="call",tracer="global"} 1`,
		`sdscale_trace_slowest_child_seconds{child="5",`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestDebugServer(t *testing.T) {
	tr := New(1024)
	tr.RecordCycle(1, 1, 0, time.Now(), time.Millisecond, false)

	d, err := StartDebug(DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.AddTracer("global", tr)
	d.AddMetrics("extra", MetricsFunc(func(w io.Writer) error {
		_, err := io.WriteString(w, "sdscale_extra_metric 42\n")
		return err
	}))

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"sdscale_trace_cycles_total", "sdscale_extra_metric 42"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var traceOut []traceJSON
	if err := json.Unmarshal([]byte(get("/debug/trace")), &traceOut); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	if len(traceOut) != 1 || traceOut[0].Tracer != "global" || len(traceOut[0].Spans) != 1 {
		t.Fatalf("/debug/trace shape: %+v", traceOut)
	}
	if traceOut[0].Spans[0].Kind != "cycle" {
		t.Fatalf("span kind: %+v", traceOut[0].Spans[0])
	}

	if !strings.Contains(get("/debug/vars"), "sdscale.trace") {
		t.Fatal("/debug/vars missing sdscale.trace")
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

func TestDebugServerRefusesRemoteBind(t *testing.T) {
	if _, err := StartDebug(DebugOptions{Addr: "0.0.0.0:0"}); err == nil {
		t.Fatal("non-loopback bind accepted without AllowRemote")
	}
	d, err := StartDebug(DebugOptions{Addr: "0.0.0.0:0", AllowRemote: true})
	if err != nil {
		t.Fatalf("AllowRemote bind failed: %v", err)
	}
	d.Close()
}

func TestSampling(t *testing.T) {
	var nilT *Tracer
	if nilT.Sampled(8) {
		t.Fatal("nil tracer sampled a call")
	}
	if got := nilT.SampleEvery(); got != 0 {
		t.Fatalf("nil SampleEvery = %d, want 0", got)
	}
	nilT.CountClientCall(true, true) // must not panic
	nilT.CountServerCall()

	tr := New(0)
	if got := tr.SampleEvery(); got != 1 {
		t.Fatalf("default SampleEvery = %d, want 1 (every call)", got)
	}
	for id := uint64(1); id <= 16; id++ {
		if !tr.Sampled(id) {
			t.Fatalf("full-fidelity tracer skipped id %d", id)
		}
	}

	tr.SetSampleEvery(5) // rounds up to 8
	if got := tr.SampleEvery(); got != 8 {
		t.Fatalf("SampleEvery after SetSampleEvery(5) = %d, want 8", got)
	}
	for id := uint64(1); id <= 32; id++ {
		want := id%8 == 0
		if got := tr.Sampled(id); got != want {
			t.Fatalf("Sampled(%d) = %v, want %v", id, got, want)
		}
	}

	tr.SetSampleEvery(1)
	if got := tr.SampleEvery(); got != 1 {
		t.Fatalf("SampleEvery after SetSampleEvery(1) = %d, want 1", got)
	}
}

func TestCountOnlyRecording(t *testing.T) {
	tr := New(0)
	tr.CountClientCall(false, false)
	tr.CountClientCall(true, false)
	tr.CountClientCall(true, true)
	tr.CountServerCall()

	tot := tr.Totals()
	if tot.ClientCalls != 3 || tot.ClientErrors != 2 || tot.Abandoned != 1 {
		t.Fatalf("client counts: %+v", tot)
	}
	if tot.ClientSampled != 0 || tot.ClientDur != 0 {
		t.Fatalf("count-only calls leaked timings: %+v", tot)
	}
	if tot.ServerCalls != 1 || tot.ServerSampled != 0 || tot.ServerDur != 0 {
		t.Fatalf("server counts: %+v", tot)
	}
	if got := tr.cursor.Load(); got != 0 {
		t.Fatalf("count-only calls appended %d spans, want 0", got)
	}

	// A sampled record lands in both the exact and the sampled counters.
	tr.RecordClientCall(1, 8, 100, 50, 10, 5, false, false)
	tr.RecordServerCall(2, 8, 100, 40, 20, 10)
	tot = tr.Totals()
	if tot.ClientCalls != 4 || tot.ClientSampled != 1 {
		t.Fatalf("mixed client counts: %+v", tot)
	}
	if tot.ServerCalls != 2 || tot.ServerSampled != 1 {
		t.Fatalf("mixed server counts: %+v", tot)
	}

	tr.Reset()
	tot = tr.Totals()
	if tot.ClientCalls != 0 || tot.ClientSampled != 0 || tot.ServerCalls != 0 || tot.ServerSampled != 0 {
		t.Fatalf("totals survived Reset: %+v", tot)
	}
}
