package workload

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

func TestConstant(t *testing.T) {
	g := Constant{Rates: wire.Rates{10, 2}}
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if got := g.Demand(at); got != (wire.Rates{10, 2}) {
			t.Errorf("Demand(%v) = %v", at, got)
		}
	}
}

func TestStressNeverIdle(t *testing.T) {
	g := Stress()
	for at := time.Duration(0); at < 10*time.Second; at += 100 * time.Millisecond {
		if g.Demand(at).IsZero() {
			t.Fatalf("stress demand idle at %v", at)
		}
	}
}

func TestBurstyPhases(t *testing.T) {
	g := Bursty{
		On:   time.Second,
		Off:  time.Second,
		High: wire.Rates{100, 10},
		Low:  wire.Rates{1, 0},
	}
	if got := g.Demand(500 * time.Millisecond); got != g.High {
		t.Errorf("on-phase demand = %v", got)
	}
	if got := g.Demand(1500 * time.Millisecond); got != g.Low {
		t.Errorf("off-phase demand = %v", got)
	}
	// Periodicity.
	if got := g.Demand(2500 * time.Millisecond); got != g.High {
		t.Errorf("second period on-phase = %v", got)
	}
}

func TestBurstyPhaseShift(t *testing.T) {
	a := Bursty{On: time.Second, Off: time.Second, High: wire.Rates{1, 0}}
	b := Bursty{On: time.Second, Off: time.Second, High: wire.Rates{1, 0}, Phase: time.Second}
	at := 200 * time.Millisecond
	if a.Demand(at) == b.Demand(at) {
		t.Error("phase shift had no effect")
	}
}

func TestBurstyZeroPeriod(t *testing.T) {
	g := Bursty{High: wire.Rates{5, 5}}
	if got := g.Demand(time.Hour); got != g.High {
		t.Errorf("zero-period bursty = %v, want High", got)
	}
}

func TestRamp(t *testing.T) {
	g := Ramp{From: wire.Rates{0, 0}, To: wire.Rates{100, 10}, Over: 10 * time.Second}
	if got := g.Demand(0); got != g.From {
		t.Errorf("Demand(0) = %v", got)
	}
	if got := g.Demand(5 * time.Second); got != (wire.Rates{50, 5}) {
		t.Errorf("Demand(mid) = %v", got)
	}
	if got := g.Demand(20 * time.Second); got != g.To {
		t.Errorf("Demand(past end) = %v", got)
	}
	flat := Ramp{To: wire.Rates{7, 7}}
	if got := flat.Demand(0); got != flat.To {
		t.Errorf("zero-duration ramp = %v", got)
	}
}

func TestRampMonotoneProperty(t *testing.T) {
	g := Ramp{From: wire.Rates{0, 0}, To: wire.Rates{1000, 100}, Over: time.Minute}
	f := func(aMS, bMS uint16) bool {
		a, b := time.Duration(aMS)*time.Millisecond, time.Duration(bMS)*time.Millisecond
		if a > b {
			a, b = b, a
		}
		da, db := g.Demand(a), g.Demand(b)
		return da[0] <= db[0]+1e-9 && da[1] <= db[1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	g := RandomWalk{Mean: wire.Rates{100, 10}, Jitter: 0.2, Seed: 7}
	a := g.Demand(3 * time.Second)
	b := g.Demand(3 * time.Second)
	if a != b {
		t.Errorf("same instant produced %v then %v", a, b)
	}
	other := RandomWalk{Mean: wire.Rates{100, 10}, Jitter: 0.2, Seed: 8}
	if g.Demand(time.Second) == other.Demand(time.Second) {
		t.Error("different seeds produced identical demand (suspicious)")
	}
}

func TestRandomWalkBoundedProperty(t *testing.T) {
	g := RandomWalk{Mean: wire.Rates{100, 10}, Jitter: 0.25, Seed: 3}
	f := func(slot uint16) bool {
		d := g.Demand(time.Duration(slot) * time.Second)
		return d[0] >= 75-1e-9 && d[0] <= 125+1e-9 && d[1] >= 7.5-1e-9 && d[1] <= 12.5+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomWalkNeverNegative(t *testing.T) {
	g := RandomWalk{Mean: wire.Rates{1, 1}, Jitter: 5, Seed: 1} // jitter > 1
	for s := 0; s < 100; s++ {
		d := g.Demand(time.Duration(s) * time.Second)
		if d[0] < 0 || d[1] < 0 {
			t.Fatalf("negative demand %v at slot %d", d, s)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		at   time.Duration
		want wire.Rates
	}{
		{"stress", 0, wire.Rates{1000, 100}},
		{"constant:50,5", time.Hour, wire.Rates{50, 5}},
		{"bursty:100,10:1:1", 500 * time.Millisecond, wire.Rates{100, 10}},
		{"bursty:100,10:1:1", 1500 * time.Millisecond, wire.Rates{}},
		{"ramp:100,10:10", 5 * time.Second, wire.Rates{50, 5}},
	}
	for _, tc := range cases {
		g, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got := g.Demand(tc.at); got != tc.want {
			t.Errorf("Parse(%q).Demand(%v) = %v, want %v", tc.spec, tc.at, got, tc.want)
		}
	}
	if g, err := Parse("walk:100,10:0.2"); err != nil {
		t.Errorf("Parse(walk): %v", err)
	} else if g.Demand(0).IsZero() {
		t.Error("walk demand is zero")
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "nope", "constant", "constant:1", "constant:1,2,3", "constant:x,y",
		"bursty:1,1", "bursty:1,1:x:1", "bursty:1,1:1:x",
		"ramp:1,1", "ramp:1,1:x",
		"walk:1,1", "walk:1,1:x",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}
