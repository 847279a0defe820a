package config

import (
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return f
}

func TestParseFull(t *testing.T) {
	f := mustParse(t, `{
		"stages": 64,
		"jobs": 8,
		"aggregatorFanIn": 16,
		"dataDir": "/tmp/wal",
		"workload": "stress",
		"capacity": [1000, 100],
		"incremental": true,
		"interval": "250ms",
		"poll": "1s",
		"jobWeights": {"1": 2.5, "7": 0.5},
		"debug": "127.0.0.1:9190",
		"slo": {"targetP90": "40ms", "window": 8, "breachWindows": 2, "clearWindows": 4,
		        "headroomRatio": 0.4, "cooldown": "5s", "minAggregators": 1, "maxAggregators": 8}
	}`)
	if f.Stages != 64 || f.Jobs != 8 || f.AggregatorFanIn != 16 {
		t.Fatalf("topology fields wrong: %+v", f)
	}
	if got := f.CycleInterval(); got != 250*time.Millisecond {
		t.Fatalf("CycleInterval = %v", got)
	}
	if got := f.PollInterval(); got != time.Second {
		t.Fatalf("PollInterval = %v", got)
	}
	w := f.Weights()
	if len(w) != 2 || w[1] != 2.5 || w[7] != 0.5 {
		t.Fatalf("Weights = %v", w)
	}
	if f.SLO == nil || f.SLO.TargetP90.Value() != 40*time.Millisecond || f.SLO.MaxAggregators != 8 {
		t.Fatalf("SLO = %+v", f.SLO)
	}
}

func TestParseDefaults(t *testing.T) {
	f := mustParse(t, `{"stages": 4}`)
	if got := f.CycleInterval(); got != DefaultInterval {
		t.Fatalf("CycleInterval = %v, want %v", got, DefaultInterval)
	}
	if got := f.PollInterval(); got != DefaultPoll {
		t.Fatalf("PollInterval = %v, want %v", got, DefaultPoll)
	}
	if f.Weights() != nil {
		t.Fatalf("Weights on empty table = %v, want nil", f.Weights())
	}
}

func TestDurationForms(t *testing.T) {
	// String form and bare-nanosecond form both decode.
	f := mustParse(t, `{"stages": 1, "interval": 250000000}`)
	if got := f.CycleInterval(); got != 250*time.Millisecond {
		t.Fatalf("numeric interval = %v", got)
	}
	b, err := Duration(1500 * time.Millisecond).MarshalJSON()
	if err != nil || string(b) != `"1.5s"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown field", `{"stages": 4, "stagess": 5}`, "unknown field"},
		{"trailing data", `{"stages": 4} {"stages": 5}`, "trailing data"},
		{"bad duration", `{"stages": 4, "interval": "fast"}`, "bad duration"},
		{"no stages", `{}`, "at least one stage"},
		{"negative jobs", `{"stages": 4, "jobs": -1}`, "negative jobs"},
		{"negative shards", `{"stages": 4, "shards": -1}`, "Shards must be >= 1"},
		{"standbys too many", `{"stages": 4, "standbys": 3}`, "at most 2 standbys"},
		{"negative standbys", `{"stages": 4, "standbys": -1}`, "negative standby"},
		{"fanin with standbys", `{"stages": 100, "aggregatorFanIn": 50, "standbys": 1}`, "standby failover"},
		{"negative fanin", `{"stages": 4, "aggregatorFanIn": -1}`, "negative aggregator fan-in"},
		{"fanin exclusive with shards", `{"stages": 4, "shards": 2, "aggregatorFanIn": 2}`, "exclusive"},
		{"stages under shards", `{"stages": 2, "shards": 4}`, "cannot populate"},
		{"capacity arity", `{"stages": 4, "capacity": [1]}`, "capacity wants"},
		{"capacity negative", `{"stages": 4, "capacity": [-1, 1]}`, "negative capacity"},
		{"negative interval", `{"stages": 4, "interval": "-1s"}`, "negative interval"},
		{"negative poll", `{"stages": 4, "poll": "-1s"}`, "negative poll"},
		{"weight key", `{"stages": 4, "jobWeights": {"abc": 1}}`, "not a job ID"},
		{"weight value", `{"stages": 4, "jobWeights": {"1": 0}}`, "must be positive"},
		{"slo no target", `{"stages": 4, "aggregatorFanIn": 2, "slo": {"window": 4}}`, "targetP90"},
		{"slo negative windows", `{"stages": 4, "aggregatorFanIn": 2, "slo": {"targetP90": "1s", "window": -1}}`, "negative slo window"},
		{"slo headroom", `{"stages": 4, "aggregatorFanIn": 2, "slo": {"targetP90": "1s", "headroomRatio": 1.5}}`, "headroomRatio"},
		{"slo bounds order", `{"stages": 4, "aggregatorFanIn": 2, "slo": {"targetP90": "1s", "minAggregators": 5, "maxAggregators": 2}}`, "exceeds"},
		{"slo needs fanin", `{"stages": 4, "slo": {"targetP90": "1s"}}`, "requires the hierarchical design"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDiffSafeDeltas(t *testing.T) {
	old := mustParse(t, `{"stages": 8, "shards": 2, "interval": "1s", "jobWeights": {"1": 2, "2": 3}}`)
	next := mustParse(t, `{"stages": 12, "shards": 4, "interval": "500ms", "poll": "1s", "jobWeights": {"1": 2, "3": 4}}`)
	d, err := Diff(old, next)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Interval == nil || *d.Interval != 500*time.Millisecond {
		t.Fatalf("Interval delta = %v", d.Interval)
	}
	if d.Poll == nil || *d.Poll != time.Second {
		t.Fatalf("Poll delta = %v", d.Poll)
	}
	if d.Stages != 12 || d.Shards != 4 {
		t.Fatalf("resize delta = stages %d shards %d", d.Stages, d.Shards)
	}
	// Job 2 was removed → resets to 1; job 3 added; job 1 unchanged → absent.
	if len(d.JobWeights) != 2 || d.JobWeights[2] != 1 || d.JobWeights[3] != 4 {
		t.Fatalf("JobWeights delta = %v", d.JobWeights)
	}
	if d.Empty() {
		t.Fatal("delta should not be empty")
	}
	s := d.String()
	for _, want := range []string{"interval=500ms", "poll=1s", "stages=12", "shards=4", "2=1", "3=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Delta.String() %q missing %q", s, want)
		}
	}
}

func TestDiffNoChanges(t *testing.T) {
	old := mustParse(t, `{"stages": 8, "interval": "1s"}`)
	next := mustParse(t, `{"stages": 8, "interval": "1s"}`)
	d, err := Diff(old, next)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if !d.Empty() {
		t.Fatalf("delta not empty: %s", d)
	}
	if d.String() != "no changes" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestDiffIntervalDefaultEquivalence(t *testing.T) {
	// Explicit "1s" and the implicit default are the same effective interval:
	// no delta.
	old := mustParse(t, `{"stages": 8, "interval": "1s"}`)
	next := mustParse(t, `{"stages": 8}`)
	d, err := Diff(old, next)
	if err != nil || d.Interval != nil {
		t.Fatalf("Diff = %v, %v; want empty interval delta", d, err)
	}
}

func TestDiffUnsafeRejections(t *testing.T) {
	cases := []struct {
		name, old, next, want string
	}{
		{"jobs", `{"stages": 8, "jobs": 4}`, `{"stages": 8, "jobs": 8}`, "jobs"},
		{"standbys", `{"stages": 8}`, `{"stages": 8, "standbys": 1}`, "standbys"},
		{"fanin", `{"stages": 8, "aggregatorFanIn": 4}`, `{"stages": 8, "aggregatorFanIn": 8}`, "aggregatorFanIn"},
		{"virtualNodes", `{"stages": 8}`, `{"stages": 8, "virtualNodes": 128}`, "virtualNodes"},
		{"dataDir", `{"stages": 8}`, `{"stages": 8, "dataDir": "/tmp/x"}`, "dataDir"},
		{"workload", `{"stages": 8}`, `{"stages": 8, "workload": "bursty"}`, "workload"},
		{"incremental", `{"stages": 8}`, `{"stages": 8, "incremental": true}`, "incremental"},
		{"debug", `{"stages": 8, "debug": ":9190"}`, `{"stages": 8, "debug": ":9191"}`, "debug"},
		{"capacity", `{"stages": 8, "capacity": [100, 10]}`, `{"stages": 8, "capacity": [200, 10]}`, "capacity"},
		{"capacity arity", `{"stages": 8, "capacity": [100, 10]}`, `{"stages": 8}`, "capacity"},
		{"shards with standbys", `{"stages": 8, "shards": 2, "standbys": 1}`, `{"stages": 8, "shards": 4, "standbys": 1}`, "shard resize requires standbys = 0"},
		{"stages with standbys", `{"stages": 8, "standbys": 1}`, `{"stages": 12, "standbys": 1}`, "fleet resize requires standbys = 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, next := mustParse(t, tc.old), mustParse(t, tc.next)
			_, err := Diff(old, next)
			if err == nil {
				t.Fatalf("Diff accepted unsafe change %s -> %s", tc.old, tc.next)
			}
			if !strings.Contains(err.Error(), "unsafe changes rejected") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestDiffShrinkBelowLiveShards(t *testing.T) {
	// Validate already refuses stages < shards on load, so this Diff branch
	// is a defense in depth for callers handing in hand-built Files (the
	// daemon's live state); exercise it directly.
	old := &File{Stages: 8, Shards: 4}
	next := &File{Stages: 3, Shards: 4}
	_, err := Diff(old, next)
	if err == nil || !strings.Contains(err.Error(), "cannot shrink the fleet below the 4 live shard(s)") {
		t.Fatalf("Diff = %v", err)
	}
}

func TestDiffSLO(t *testing.T) {
	base := `{"stages": 8, "aggregatorFanIn": 4}`
	withSLO := `{"stages": 8, "aggregatorFanIn": 4, "slo": {"targetP90": "50ms"}}`
	retuned := `{"stages": 8, "aggregatorFanIn": 4, "slo": {"targetP90": "80ms"}}`

	d, err := Diff(mustParse(t, base), mustParse(t, withSLO))
	if err != nil || !d.SLO {
		t.Fatalf("adding slo: delta %v err %v", d, err)
	}
	d, err = Diff(mustParse(t, withSLO), mustParse(t, retuned))
	if err != nil || !d.SLO {
		t.Fatalf("retuning slo: delta %v err %v", d, err)
	}
	d, err = Diff(mustParse(t, withSLO), mustParse(t, withSLO))
	if err != nil || d.SLO {
		t.Fatalf("identical slo: delta %v err %v", d, err)
	}
	d, err = Diff(mustParse(t, withSLO), mustParse(t, base))
	if err != nil || !d.SLO {
		t.Fatalf("removing slo: delta %v err %v", d, err)
	}
}
