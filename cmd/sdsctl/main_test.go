package main

import (
	"context"
	"strings"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

func TestParseRates(t *testing.T) {
	cases := []struct {
		in   string
		want wire.Rates
		ok   bool
	}{
		{"1000,100", wire.Rates{1000, 100}, true},
		{" 1.5 , 0.5 ", wire.Rates{1.5, 0.5}, true},
		{"0,0", wire.Rates{}, true},
		{"1000", wire.Rates{}, false},
		{"1,2,3", wire.Rates{}, false},
		{"x,1", wire.Rates{}, false},
		{"", wire.Rates{}, false},
	}
	for _, tc := range cases {
		got, err := parseRates(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseRates(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseRates(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRunStoreInspect(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRegister(wire.MemberState{ID: 7, JobID: 1, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if err := runStore([]string{"inspect", dir}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := runStore([]string{"inspect"}); err == nil {
		t.Error("inspect without a dir should fail")
	}
	if err := runStore([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should fail")
	}
	if err := runStore(nil); err == nil {
		t.Error("missing subcommand should fail")
	}
}

// TestRunTopologyPrintsBuiltSpec: the validated spec is printed as the
// builder would build it, defaults applied: jobs clamped to the fleet, zero
// shards as one, and the aggregator count a fan-in lowers to.
func TestRunTopologyPrintsBuiltSpec(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stages", "10", "-shards", "0", "-validate"},
			"topology spec valid: 10 stages, 10 jobs, 1 shard(s), 0 standby(s)/shard\n"},
		{[]string{"-stages", "100", "-fanin", "30", "-validate"},
			"topology spec valid: 100 stages, 16 jobs, 1 shard(s), 0 standby(s)/shard, aggregator fan-in 30 (4 aggregators)\n"},
	} {
		var out strings.Builder
		if err := runTopology(context.Background(), tc.args, &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if out.String() != tc.want {
			t.Errorf("%v printed %q, want %q", tc.args, out.String(), tc.want)
		}
	}
	if err := runTopology(context.Background(), []string{"-stages", "3", "-shards", "4", "-validate"}, &strings.Builder{}); err == nil {
		t.Error("a spec with more shards than stages validated")
	}
}
