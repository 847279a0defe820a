package wire

import (
	"math"
	"reflect"
	"testing"
)

// TestFloat64V2RoundTrip checks the tagged float encoding on the values that
// pick each tag, without history: zeros, small integrals, and raw fallbacks
// including the non-finite values.
func TestFloat64V2RoundTrip(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, 2, 1000, 1 << 20, 1 << 53,
		float64(1<<53) * 2, 0.5, -1, -42.25, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
		12345.678, 1e-300,
	}
	e := &Encoder{ver: CodecV2}
	for _, v := range values {
		e.Float64(v)
	}
	d := &Decoder{buf: e.Bytes(), ver: CodecV2}
	for i, want := range values {
		got := d.Float64()
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("value %d: want NaN, got %v", i, got)
			}
			continue
		}
		// -0 canonicalizes to +0 (tag f2Zero) but compares equal; everything
		// else is exact.
		if got != want {
			t.Fatalf("value %d: want %v, got %v", i, want, got)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestFloat64V2History drives matched encoder/decoder histories through a
// sequence of messages and checks exact reconstruction plus the size win:
// a repeated message is all f2Same tags, one byte per float.
func TestFloat64V2History(t *testing.T) {
	msgs := []*CollectReply{
		{Cycle: 1, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{100, 3.5}, Usage: Rates{90, 3.5}}}},
		{Cycle: 2, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{100, 3.5}, Usage: Rates{90, 3.5}}}},
		{Cycle: 3, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{103, 3.5}, Usage: Rates{90.25, 4}}}},
		{Cycle: 4, Reports: []StageReport{}},
		{Cycle: 5, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{103, 3.5}, Usage: Rates{90.25, 4}}}},
	}
	eh, dh := NewFloatHistory(), NewFloatHistory()
	var sizes []int
	for i, m := range msgs {
		buf := EncodeWith(nil, m, CodecV2, eh)
		sizes = append(sizes, len(buf))
		got, err := DecodeWith(buf, &DecodeOpts{Version: CodecV2, Hist: dh})
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		r := got.(*CollectReply)
		if r.Cycle != m.Cycle || len(r.Reports) != len(m.Reports) {
			t.Fatalf("msg %d: got %+v, want %+v", i, r, m)
		}
		for j := range m.Reports {
			if r.Reports[j] != m.Reports[j] {
				t.Fatalf("msg %d report %d: got %+v, want %+v", i, j, r.Reports[j], m.Reports[j])
			}
		}
	}
	// Message 1 repeats message 0: every float collapses to a 1-byte f2Same.
	if sizes[1] >= sizes[0] {
		t.Fatalf("repeated message did not shrink: sizes %v", sizes)
	}
	// Message 4 follows an empty message, so its history is empty again and
	// it must still round-trip (checked above) at the stateless size.
}

// TestFloatHistoryGrowsByType: a history's per-type table is grown on first
// use, so the first message on a fresh pair of histories being the
// highest-numbered type, or a corrupt type byte reaching the decoder's
// history, must neither panic nor change what is decoded afterwards.
func TestFloatHistoryGrowsByType(t *testing.T) {
	eh, dh := NewFloatHistory(), NewFloatHistory()
	opts := &DecodeOpts{Version: CodecV2, Hist: dh}
	msgs := []Message{
		&ShardMap{Epoch: 3, Entries: []ShardEntry{{Index: 1, Epoch: 3, Children: 10, Addr: "s1:1"}}},
		&CollectReply{Cycle: 1, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{100, 3.5}, Usage: Rates{90, 3.5}}}},
		&CollectReply{Cycle: 2, Reports: []StageReport{{StageID: 7, JobID: 1, Demand: Rates{101, 3.5}, Usage: Rates{90, 3.5}}}},
	}
	for i, m := range msgs {
		got, err := DecodeWith(EncodeWith(nil, m, CodecV2, eh), opts)
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d: got %+v, %v; want %+v", i, got, err, m)
		}
		// Between real messages, frames whose type byte names no message:
		// refused as before, and the history of the real types is untouched
		// (message 2 above delta-codes against message 1 across them).
		for _, unknown := range []byte{0, byte(TShardMap) + 1, 0xFF} {
			if m, err := DecodeWith([]byte{unknown}, opts); err == nil {
				t.Fatalf("type byte %d decoded as %T", unknown, m)
			}
		}
	}
}

// TestFloat64V2StatelessRejectsHistoryTags: a history tag arriving on a
// stream decoded without history is corruption, not a zero.
func TestFloat64V2StatelessRejectsHistoryTags(t *testing.T) {
	for _, tag := range []byte{f2Same, f2Delta, 9} {
		d := &Decoder{buf: []byte{tag, 2}, ver: CodecV2}
		d.Float64()
		if d.Err() == nil {
			t.Fatalf("tag %d: want error, got none", tag)
		}
	}
}

// TestV1EncodingUnchanged pins the fixed-width float layout: 8-byte IEEE 754,
// so snapshots written by earlier builds read back byte for byte.
func TestV1EncodingUnchanged(t *testing.T) {
	m := &CollectReply{Cycle: 9, Reports: []StageReport{{StageID: 1, JobID: 2, Demand: Rates{3.5, 0}, Usage: Rates{1, 2}}}}
	buf := Encode(nil, m)
	// tag + cycle + len + 2*uvarint ids + 4 floats * 8 bytes
	want := 1 + 1 + 1 + 1 + 1 + 4*8
	if len(buf) != want {
		t.Fatalf("v1 encoding size %d, want %d", len(buf), want)
	}
	if _, err := Decode(buf); err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
}

// TestDecodeReuse checks the zero-alloc decode contract: a reused message's
// backing arrays are recycled, and a shorter (or empty) follow-up decode
// truncates rather than leaving stale entries behind.
func TestDecodeReuse(t *testing.T) {
	reply := &CollectReply{}
	reuse := func(MsgType) Message { return reply }

	long := Encode(nil, &CollectReply{Cycle: 1, Reports: []StageReport{
		{StageID: 1, JobID: 1, Demand: Rates{1, 1}},
		{StageID: 2, JobID: 1, Demand: Rates{2, 2}},
	}})
	got, err := DecodeWith(long, &DecodeOpts{Reuse: reuse})
	if err != nil || got != Message(reply) || len(reply.Reports) != 2 {
		t.Fatalf("first decode: err=%v reports=%d", err, len(reply.Reports))
	}
	backing := &reply.Reports[0]

	short := Encode(nil, &CollectReply{Cycle: 2, Reports: []StageReport{{StageID: 9, JobID: 3}}})
	if _, err := DecodeWith(short, &DecodeOpts{Reuse: reuse}); err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if len(reply.Reports) != 1 || reply.Reports[0].StageID != 9 {
		t.Fatalf("second decode did not truncate: %+v", reply.Reports)
	}
	if &reply.Reports[0] != backing {
		t.Fatalf("second decode reallocated the reports array")
	}

	empty := Encode(nil, &CollectReply{Cycle: 3})
	if _, err := DecodeWith(empty, &DecodeOpts{Reuse: reuse}); err != nil {
		t.Fatalf("empty decode: %v", err)
	}
	if len(reply.Reports) != 0 {
		t.Fatalf("empty decode left %d stale reports", len(reply.Reports))
	}

	// Enforce with zero rules must likewise truncate a reused batch.
	enf := &Enforce{}
	ereuse := func(MsgType) Message { return enf }
	if _, err := DecodeWith(Encode(nil, &Enforce{Cycle: 1, Rules: []Rule{{StageID: 1}}, Epoch: 4}), &DecodeOpts{Reuse: ereuse}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWith(Encode(nil, &Enforce{Cycle: 2, Epoch: 5}), &DecodeOpts{Reuse: ereuse}); err != nil {
		t.Fatal(err)
	}
	if len(enf.Rules) != 0 || enf.Epoch != 5 {
		t.Fatalf("reused enforce holds stale state: %+v", enf)
	}
}

// TestDecodeReuseSteadyStateAllocs: decoding the same shape into a reused
// message must not allocate once the backing arrays exist.
func TestDecodeReuseSteadyStateAllocs(t *testing.T) {
	reply := &CollectReply{}
	opts := &DecodeOpts{Reuse: func(MsgType) Message { return reply }}
	buf := Encode(nil, &CollectReply{Cycle: 1, Reports: []StageReport{{StageID: 1, JobID: 2, Demand: Rates{3, 4}, Usage: Rates{5, 6}}}})
	if _, err := DecodeWith(buf, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeWith(buf, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state reuse decode allocates %.1f/op, want 0", allocs)
	}
}
