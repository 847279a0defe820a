package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder: it must never
// panic, never over-allocate, and anything it accepts must re-encode to a
// decodable message of the same type (decode/encode/decode consistency).
func FuzzDecode(f *testing.F) {
	// Seed with every message type's encoding.
	seeds := []Message{
		&Register{Role: RoleStage, ID: 1, JobID: 2, Weight: 1.5, Addr: "a:1"},
		&RegisterAck{ID: 1, Epoch: 2},
		&Collect{Cycle: 3, WindowMicros: 1e6},
		&CollectReply{Cycle: 3, Reports: []StageReport{{StageID: 1, JobID: 2, Demand: Rates{3, 4}, Usage: Rates{5, 6}}}},
		&CollectAggReply{Cycle: 3, AggregatorID: 9, Jobs: []JobReport{{JobID: 1, Stages: 10, Demand: Rates{1, 2}}}},
		&Enforce{Cycle: 4, Rules: []Rule{{StageID: 1, JobID: 2, Action: ActionSetLimit, Limit: Rates{7, 8}}}},
		&EnforceAck{Cycle: 4, Applied: 1},
		&Heartbeat{SentUnixMicros: 5},
		&HeartbeatAck{EchoUnixMicros: 5},
		&ErrorReply{Code: CodeOverload, Text: "x"},
		&StageList{},
		&StageListReply{Stages: []StageEntry{{ID: 1, JobID: 2, Weight: 3, Addr: "b:2"}}},
		&PeerExchange{Cycle: 1, PeerID: 2, Addr: "p:1", Jobs: []JobReport{{JobID: 1}}},
		&PeerExchangeAck{Cycle: 1, PeerID: 2},
		&Delegate{Cycle: 2, Epoch: 1, Budgets: []JobBudget{{JobID: 1, Limit: Rates{9, 10}}}},
		&Enforce{Cycle: 5, Epoch: 2, Rules: []Rule{{StageID: 1, JobID: 2, Action: ActionPause}}},
		&Collect{Cycle: 6, WindowMicros: 1e6, Epoch: 2},
		&ErrorReply{Code: CodeStaleEpoch, Text: "deposed", Epoch: 3},
		&StateSync{PrimaryID: 1, Epoch: 2, Cycle: 7, LeaseMicros: 250_000,
			Members: []MemberState{
				{Role: RoleStage, ID: 1, JobID: 2, Weight: 1, Addr: "a:1",
					Rules: []Rule{{StageID: 1, JobID: 2, Action: ActionSetLimit, Limit: Rates{3, 4}}}},
				{Role: RoleAggregator, ID: 9, Addr: "b:2",
					Stages: []StageEntry{{ID: 1, JobID: 2, Weight: 1, Addr: "a:1"}}},
			},
			Weights: []JobWeight{{JobID: 2, Weight: 1}}},
		&StateSyncAck{ID: 2, Epoch: 2},
		&ReportDelta{Seq: 3, Full: true, Epoch: 2,
			Report: StageReport{StageID: 1, JobID: 2, Demand: Rates{3, 4}, Usage: Rates{5, 6}}},
		&VoteRequest{CandidateID: 2, Epoch: 4, Cycle: 88},
		&LeaseGrant{VoterID: 3, Granted: true, Epoch: 4},
		&ShardQuery{ChildID: 7},
		&ShardMap{Epoch: 3, Owner: 1, OwnerValid: true, Entries: []ShardEntry{
			{Index: 0, Epoch: 2, Children: 4, Addr: "shard-0:1", Standbys: []string{"shard-0-standby-0:2"}},
			{Index: 1, Epoch: 3, Children: 5, Addr: "shard-1:1"},
		}},
	}
	for _, m := range seeds {
		f.Add(Encode(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re := Encode(nil, m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", m.Type(), m2.Type())
		}
		// A second encode must be byte-identical (canonical encoding).
		if re2 := Encode(nil, m2); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n%x\n%x", re, re2)
		}
	})
}

// FuzzDecoderPrimitives exercises the primitive decoders on raw input.
func FuzzDecoderPrimitives(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.Uint64()
		_ = d.Int64()
		_ = d.Float64()
		_ = d.Bytes16()
		_ = d.String()
		_ = d.Finish()
	})
}

// FuzzDecodeV2 feeds arbitrary bytes to the stateless v2 decoder. Like
// FuzzDecode it must never panic, and accepted inputs must re-encode
// canonically. The corpus seeds every message type in both codecs.
func FuzzDecodeV2(f *testing.F) {
	seeds := []Message{
		&Register{Role: RoleStage, ID: 1, JobID: 2, Weight: 1.5, Addr: "a:1"},
		&Collect{Cycle: 3, WindowMicros: 1e6, Epoch: 2},
		&CollectReply{Cycle: 3, Reports: []StageReport{{StageID: 1, JobID: 2, Demand: Rates{3, 4.5}, Usage: Rates{0, 6}}}},
		&CollectAggReply{Cycle: 3, AggregatorID: 9, Jobs: []JobReport{{JobID: 1, Stages: 10, Demand: Rates{1, 2}}}},
		&Enforce{Cycle: 4, Epoch: 1, Rules: []Rule{{StageID: 1, JobID: 2, Action: ActionSetLimit, Limit: Rates{7, 8}}}},
		&EnforceAck{Cycle: 4, Applied: 1},
		&HeartbeatAck{EchoUnixMicros: 5},
		&ErrorReply{Code: CodeStaleEpoch, Text: "deposed", Epoch: 3},
		&PeerExchange{Cycle: 1, PeerID: 2, Addr: "p:1", Jobs: []JobReport{{JobID: 1, Demand: Rates{0.25, 9}}}},
		&Delegate{Cycle: 2, Epoch: 1, Budgets: []JobBudget{{JobID: 1, Limit: Rates{9, 10}}}},
		&StateSync{PrimaryID: 1, Epoch: 2, Cycle: 7, LeaseMicros: 250_000,
			Members: []MemberState{{Role: RoleStage, ID: 1, JobID: 2, Weight: 1, Addr: "a:1"}},
			Weights: []JobWeight{{JobID: 2, Weight: 1}}},
		&ReportDelta{Seq: 9, Epoch: 1,
			Report: StageReport{StageID: 1, JobID: 2, Demand: Rates{3, 4.5}, Usage: Rates{0, 6}}},
		&VoteRequest{CandidateID: 2, Epoch: 4, Cycle: 88},
		&LeaseGrant{VoterID: 1, Granted: false, Epoch: 9},
		&ShardQuery{ChildID: 7},
		&ShardMap{Epoch: 3, Owner: 1, OwnerValid: true, Entries: []ShardEntry{
			{Index: 0, Epoch: 2, Children: 4, Addr: "shard-0:1", Standbys: []string{"shard-0-standby-0:2"}},
		}},
	}
	for _, m := range seeds {
		f.Add(EncodeWith(nil, m, CodecV2, nil))
		f.Add(Encode(nil, m))
	}
	// Fixed-width Heartbeats whose 8-byte timestamp is a small integer: the
	// v2 decoder reads those bytes as varints and float tags instead.
	f.Add(Encode(nil, &Heartbeat{SentUnixMicros: CodecV1}))
	f.Add(Encode(nil, &Heartbeat{SentUnixMicros: CodecV2}))
	f.Add([]byte{byte(TCollectReply), 1, 1, 1, 1, f2Same})
	f.Add([]byte{})

	opts := &DecodeOpts{Version: CodecV2}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWith(data, opts)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re := EncodeWith(nil, m, CodecV2, nil)
		m2, err := DecodeWith(re, opts)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", m.Type(), m2.Type())
		}
		// A second encode must be byte-identical (canonical encoding).
		if re2 := EncodeWith(nil, m2, CodecV2, nil); !bytes.Equal(re, re2) {
			t.Fatalf("v2 encoding not canonical:\n%x\n%x", re, re2)
		}
	})
}

// FuzzFloat64V2 exercises the tagged float primitive with history on both
// sides: arbitrary bytes become two float sequences encoded as consecutive
// history-carrying messages, which must reconstruct exactly.
func FuzzFloat64V2(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		half := len(vals) / 2
		eh, dh := NewFloatHistory(), NewFloatHistory()
		for _, seq := range [][]float64{vals[:half], vals[half:]} {
			e := &Encoder{ver: CodecV2, hist: eh}
			eh.begin(TCollectReply)
			for _, v := range seq {
				e.Float64(v)
			}
			eh.end()
			d := &Decoder{buf: e.buf, ver: CodecV2, hist: dh}
			dh.begin(TCollectReply)
			for i, want := range seq {
				got := d.Float64()
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) &&
					!(want == 0 && math.Signbit(want)) { // -0 canonicalizes
					t.Fatalf("float %d: want %v (%x), got %v (%x)",
						i, want, math.Float64bits(want), got, math.Float64bits(got))
				}
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("finish: %v", err)
			}
			dh.end()
		}
	})
}

// refHist is the float history as it was before it became one flat value,
// kept as FuzzFloatHistoryMatchesReference's reference: per message type,
// the previous message's floats (prev) and those of the message being coded
// (cur), which trade places when the message ends.
type refHist map[MsgType]*refTypeHist

type refTypeHist struct{ prev, cur []float64 }

func (h refHist) get(t MsgType) *refTypeHist {
	if h[t] == nil {
		h[t] = &refTypeHist{}
	}
	return h[t]
}

func (th *refTypeHist) swap() { th.prev, th.cur = th.cur, th.prev[:0] }

// encode is Encoder.Float64 against the two-array history.
func (th *refTypeHist) encode(e *Encoder, v float64) {
	var prev float64
	hasPrev := false
	if pos := len(th.cur); pos < len(th.prev) {
		prev, hasPrev = th.prev[pos], true
	}
	th.cur = append(th.cur, v)
	switch {
	case hasPrev && prev == v:
		e.Byte(f2Same)
	case v == 0:
		e.Byte(f2Zero)
	case isIntFloat(v):
		e.Byte(f2Int)
		e.Uint64(uint64(v))
	case hasPrev && deltaFits(prev, v):
		e.Byte(f2Delta)
		e.Int64(int64(v - prev))
	default:
		e.Byte(f2Raw)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
}

// decode is Decoder.Float64 against the two-array history.
func (th *refTypeHist) decode(d *Decoder) float64 {
	tag := d.Byte()
	if d.err != nil {
		return 0
	}
	var v float64
	switch tag {
	case f2Zero:
	case f2Int:
		v = float64(d.Uint64())
	case f2Raw:
		v = d.float64raw()
	case f2Same, f2Delta:
		if len(th.cur) >= len(th.prev) {
			d.fail(errors.New("reference: history tag without history"))
			return 0
		}
		v = th.prev[len(th.cur)]
		if tag == f2Delta {
			v += float64(d.Int64())
		}
	default:
		d.fail(errors.New("reference: unknown tag"))
		return 0
	}
	th.cur = append(th.cur, v)
	return v
}

// FuzzFloatHistoryMatchesReference drives the flat history and the
// two-array reference through one sequence of messages of mixed types, each
// a run of floats, and requires identical bytes from both encoders and
// identical floats from both decoders. Three bytes of input per message
// pick its type, its float count (0 to 23: counts grow past the inline
// four, shrink and drop to zero) and a seed for its floats, which come from
// a small alphabet so that same, delta, int, zero and raw tags all occur.
func FuzzFloatHistoryMatchesReference(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 4, 1, 0, 9, 2, 0, 0, 0, 0, 4, 1})
	f.Add([]byte{0, 4, 1, 1, 2, 3, 0, 0, 0, 0, 4, 1}) // repeats across an empty message
	f.Add([]byte{1, 23, 5, 2, 3, 7, 1, 6, 5, 3, 0, 0, 1, 23, 9, 2, 3, 7})
	f.Add([]byte{3, 2, 0, 3, 2, 0, 0, 17, 33, 0, 5, 33, 0, 17, 34})
	types := [...]MsgType{TCollectReply, TEnforce, TCollectAggReply, TReportDelta}
	alphabet := [...]float64{0, 1, 1000.5, 90.25, math.Copysign(0, -1), 1 << 53, math.NaN(), -3}
	f.Fuzz(func(t *testing.T, data []byte) {
		eh, dh := NewFloatHistory(), NewFloatHistory()
		reh, rdh := refHist{}, refHist{}
		for msg := 0; len(data) >= 3; msg, data = msg+1, data[3:] {
			typ, n, seed := types[data[0]%4], int(data[1]%24), data[2]
			vals := make([]float64, n)
			for i := range vals {
				b := seed + byte(i)*(seed|1)
				vals[i] = alphabet[b%8] + float64(b/8%3)
			}

			e := &Encoder{ver: CodecV2, hist: eh}
			eh.begin(typ)
			for _, v := range vals {
				e.Float64(v)
			}
			eh.end()
			ref, rth := &Encoder{ver: CodecV2}, reh.get(typ)
			for _, v := range vals {
				rth.encode(ref, v)
			}
			rth.swap()
			if !bytes.Equal(e.buf, ref.buf) {
				t.Fatalf("message %d (%s, %d floats): encoded\n%x\nreference\n%x", msg, typ, n, e.buf, ref.buf)
			}

			d, rd := &Decoder{buf: e.buf, ver: CodecV2, hist: dh}, &Decoder{buf: e.buf, ver: CodecV2}
			rth = rdh.get(typ)
			dh.begin(typ)
			for i := range vals {
				got, want := d.Float64(), rth.decode(rd)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("message %d (%s) float %d: decoded %v, reference %v", msg, typ, i, got, want)
				}
			}
			dh.end()
			rth.swap()
			if err, rerr := d.Finish(), rd.Finish(); err != nil || rerr != nil {
				t.Fatalf("message %d (%s): finish %v, reference %v", msg, typ, err, rerr)
			}
		}
	})
}
