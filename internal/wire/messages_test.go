package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes m, decodes it, and returns the decoded message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(nil, m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.Type(), err)
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&Register{Role: RoleStage, ID: 42, JobID: 7, Weight: 2.5, Addr: "stage-42:0"},
		&Register{Role: RoleAggregator, ID: 9},
		&RegisterAck{ID: 42, Epoch: 3},
		&Collect{Cycle: 1001, WindowMicros: 1_000_000},
		&Collect{Cycle: 1002, WindowMicros: 1_000_000, Epoch: 4},
		&CollectReply{Cycle: 1001, Reports: []StageReport{
			{StageID: 1, JobID: 7, Demand: Rates{1000, 50}, Usage: Rates{800, 40}},
			{StageID: 2, JobID: 8, Demand: Rates{0, 0}, Usage: Rates{0, 0}},
		}},
		&CollectReply{Cycle: 5}, // empty reports
		&CollectAggReply{Cycle: 1001, AggregatorID: 3, Jobs: []JobReport{
			{JobID: 7, Stages: 2500, Demand: Rates{2.5e6, 1e5}, Usage: Rates{2e6, 9e4}},
		}},
		&Enforce{Cycle: 1001, Rules: []Rule{
			{StageID: 1, JobID: 7, Action: ActionSetLimit, Limit: Rates{500, 25}},
			{StageID: 2, JobID: 8, Action: ActionNoLimit},
			{StageID: 3, JobID: 9, Action: ActionPause},
		}},
		&Enforce{Cycle: 1002, Epoch: 5, Rules: []Rule{
			{StageID: 4, JobID: 7, Action: ActionSetLimit, Limit: Rates{250, 12}},
		}},
		&Enforce{Cycle: 1003, Epoch: 6}, // empty rules, epoch only
		&EnforceAck{Cycle: 1001, Applied: 2500},
		&Heartbeat{SentUnixMicros: 1234567890},
		&HeartbeatAck{EchoUnixMicros: 1234567890},
		&ErrorReply{Code: CodeOverload, Text: "controller shedding load"},
		&ErrorReply{Code: CodeStaleEpoch, Text: "deposed", Epoch: 7},
		&StageList{},
		&StageListReply{Stages: []StageEntry{
			{ID: 1, JobID: 2, Weight: 1.5, Addr: "stage-1:40000"},
			{ID: 2, JobID: 3, Weight: 1, Addr: "stage-2:40000"},
		}},
		&StageListReply{}, // empty
		&PeerExchange{Cycle: 7, PeerID: 2, Jobs: []JobReport{
			{JobID: 1, Stages: 100, Demand: Rates{1e5, 1e4}, Usage: Rates{9e4, 9e3}},
		}},
		&PeerExchangeAck{Cycle: 7, PeerID: 3},
		&Delegate{Cycle: 9, Epoch: 4, Budgets: []JobBudget{
			{JobID: 1, Limit: Rates{5000, 500}},
			{JobID: 2, Limit: Rates{100, 10}},
		}},
		&Delegate{Cycle: 10}, // empty budgets
		&StateSync{
			PrimaryID: 1, Epoch: 3, Cycle: 88, LeaseMicros: 250_000,
			Members: []MemberState{
				{Role: RoleStage, ID: 1, JobID: 7, Weight: 1.5, Addr: "stage-1:0",
					Rules: []Rule{{StageID: 1, JobID: 7, Action: ActionSetLimit, Limit: Rates{500, 25}}}},
				{Role: RoleAggregator, ID: 30, Addr: "agg-30:0",
					Stages: []StageEntry{{ID: 2, JobID: 8, Weight: 1, Addr: "stage-2:0"}}},
			},
			Weights: []JobWeight{{JobID: 7, Weight: 1.5}, {JobID: 8, Weight: 1}},
		},
		&StateSync{PrimaryID: 1, Epoch: 3, Cycle: 0, LeaseMicros: 250_000}, // empty mirror
		&StateSyncAck{ID: 2, Epoch: 3},
		&VoteRequest{CandidateID: 2, Epoch: 4, Cycle: 88},
		&LeaseGrant{VoterID: 3, Granted: true, Epoch: 4},
		&LeaseGrant{VoterID: 1, Granted: false, Epoch: 9}, // denial with higher epoch
		&ShardQuery{ChildID: 7},
		&ShardQuery{}, // whole-table query
		&ShardMap{Epoch: 3, Owner: 1, OwnerValid: true, Entries: []ShardEntry{
			{Index: 0, Epoch: 2, Children: 4, Addr: "shard-0:1", Standbys: []string{"shard-0-standby-0:2", "shard-0-standby-1:2"}},
			{Index: 1, Epoch: 3, Children: 5, Addr: "shard-1:1"},
		}},
		&ShardMap{Epoch: 1}, // empty table
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode([]byte{0xEE}); err == nil {
		t.Error("Decode accepted unknown message type")
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("Decode(nil) = %v, want ErrShortBuffer", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := Encode(nil, &CollectReply{Cycle: 9, Reports: []StageReport{
		{StageID: 1, JobID: 2, Demand: Rates{3, 4}, Usage: Rates{5, 6}},
	}})
	// Every strict prefix must fail cleanly, never panic.
	for i := 1; i < len(full); i++ {
		if _, err := Decode(full[:i]); err == nil {
			t.Errorf("Decode of %d/%d byte prefix succeeded", i, len(full))
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	buf := Encode(nil, &Heartbeat{SentUnixMicros: 1})
	buf = append(buf, 0x00)
	if _, err := Decode(buf); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("Decode = %v, want ErrTrailingBytes", err)
	}
}

func TestDecodeHugeSliceRejected(t *testing.T) {
	// Hand-craft a CollectReply claiming 2^30 reports with no payload. The
	// decoder must reject the length before allocating.
	e := &Encoder{buf: []byte{byte(TCollectReply)}}
	e.Uint64(1)       // cycle
	e.Uint64(1 << 30) // report count
	if _, err := Decode(e.buf); !errors.Is(err, ErrBadLength) {
		t.Errorf("Decode = %v, want ErrBadLength", err)
	}
}

func TestNewCoversAllTypes(t *testing.T) {
	for ty := TRegister; ty <= TShardMap; ty++ {
		m := New(ty)
		if m == nil {
			t.Errorf("New(%s) = nil", ty)
			continue
		}
		if m.Type() != ty {
			t.Errorf("New(%s).Type() = %s", ty, m.Type())
		}
	}
	if New(0) != nil {
		t.Error("New(0) != nil")
	}
	if New(200) != nil {
		t.Error("New(200) != nil")
	}
}

func TestRatesArithmetic(t *testing.T) {
	a := Rates{10, 20}
	b := Rates{1, 2}
	if got := a.Add(b); got != (Rates{11, 22}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(0.5); got != (Rates{5, 10}) {
		t.Errorf("Scale = %v", got)
	}
	if a.IsZero() {
		t.Error("IsZero(nonzero) = true")
	}
	if !(Rates{}).IsZero() {
		t.Error("IsZero(zero) = false")
	}
}

// TestErrorCodesPinned: ErrorReply codes are wire values, so each keeps its
// number and the retired code 3 stays unused.
func TestErrorCodesPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"CodeInternal", CodeInternal, 1},
		{"CodeBadMessage", CodeBadMessage, 2},
		{"CodeOverload", CodeOverload, 4},
		{"CodeStaleEpoch", CodeStaleEpoch, 5},
		{"CodeNotLeader", CodeNotLeader, 6},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{TCollect.String(), "Collect"},
		{TEnforce.String(), "Enforce"},
		{MsgType(250).String(), "MsgType(250)"},
		{ClassData.String(), "data"},
		{ClassMeta.String(), "meta"},
		{OpClass(9).String(), "OpClass(9)"},
		{RoleStage.String(), "stage"},
		{RoleGlobal.String(), "global"},
		{Role(9).String(), "Role(9)"},
		{ActionSetLimit.String(), "set-limit"},
		{ActionPause.String(), "pause"},
		{RuleAction(9).String(), "RuleAction(9)"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

func TestErrorReplyIsError(t *testing.T) {
	var err error = &ErrorReply{Code: CodeBadMessage, Text: "boom"}
	if err.Error() != "remote error 2: boom" {
		t.Errorf("Error() = %q", err.Error())
	}
}

// randomReports builds a random report slice for property tests.
func randomReports(r *rand.Rand, n int) []StageReport {
	reports := make([]StageReport, n)
	for i := range reports {
		reports[i] = StageReport{
			StageID: r.Uint64(),
			JobID:   r.Uint64() % 1000,
			Demand:  Rates{r.Float64() * 1e6, r.Float64() * 1e5},
			Usage:   Rates{r.Float64() * 1e6, r.Float64() * 1e5},
		}
	}
	return reports
}

func TestCollectReplyRoundTripProperty(t *testing.T) {
	f := func(cycle uint64, seed int64, n uint8) bool {
		m := &CollectReply{
			Cycle:   cycle,
			Reports: randomReports(rand.New(rand.NewSource(seed)), int(n)%64),
		}
		buf := Encode(nil, m)
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		gr := got.(*CollectReply)
		if gr.Cycle != m.Cycle || len(gr.Reports) != len(m.Reports) {
			return false
		}
		for i := range m.Reports {
			if gr.Reports[i] != m.Reports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnforceRoundTripProperty(t *testing.T) {
	f := func(cycle uint64, seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rules := make([]Rule, int(n)%64)
		for i := range rules {
			rules[i] = Rule{
				StageID: r.Uint64(),
				JobID:   r.Uint64() % 1000,
				Action:  RuleAction(1 + r.Intn(3)),
				Limit:   Rates{r.Float64() * 1e6, r.Float64() * 1e5},
			}
		}
		m := &Enforce{Cycle: cycle, Rules: rules}
		got, err := Decode(Encode(nil, m))
		if err != nil {
			return false
		}
		ge := got.(*Enforce)
		if ge.Cycle != m.Cycle || len(ge.Rules) != len(m.Rules) {
			return false
		}
		for i := range m.Rules {
			if ge.Rules[i] != m.Rules[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeFuzzNoPanic throws random bytes at Decode; it must either parse
// or error but never panic or allocate unbounded memory.
func TestDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := r.Intn(200)
		buf := make([]byte, n)
		r.Read(buf)
		_, _ = Decode(buf) // must not panic
	}
}

func BenchmarkEncodeCollectReply(b *testing.B) {
	m := &CollectReply{Cycle: 1, Reports: randomReports(rand.New(rand.NewSource(1)), 50)}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecodeCollectReply(b *testing.B) {
	m := &CollectReply{Cycle: 1, Reports: randomReports(rand.New(rand.NewSource(1)), 50)}
	buf := Encode(nil, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeEnforce2500(b *testing.B) {
	rules := make([]Rule, 2500)
	for i := range rules {
		rules[i] = Rule{StageID: uint64(i), JobID: uint64(i % 16), Action: ActionSetLimit, Limit: Rates{1000, 100}}
	}
	m := &Enforce{Cycle: 1, Rules: rules}
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}
