// Package workload synthesizes the I/O demand that data-plane stages
// report to the control plane.
//
// The paper's study uses a stress workload — the control plane runs cycles
// back-to-back and every stage always has metrics to report (§III-C). That
// is the Stress generator here. The package also provides the richer
// shapes (bursty on/off phases, ramps, random walks, recorded traces) used
// by the examples and by the dynamic-adaptation tests that the paper lists
// as future work.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Generator produces a stage's attempted I/O rate at a given offset from
// the start of the experiment. Implementations must be safe for concurrent
// use and deterministic in t, so distributed stages need no coordination.
type Generator interface {
	// Demand returns the attempted operation rate per class at time t.
	Demand(t time.Duration) wire.Rates
}

// Constant emits a fixed demand forever.
type Constant struct {
	// Rates is the demand emitted at every instant.
	Rates wire.Rates
}

// Demand implements Generator.
func (c Constant) Demand(time.Duration) wire.Rates { return c.Rates }

// Stress is the paper's stress workload: a constant, high, never-idle
// demand that keeps every control cycle fully loaded.
func Stress() Generator {
	return Constant{Rates: wire.Rates{1000, 100}}
}

// Bursty alternates between High demand for On and Low demand for Off,
// offset by Phase. It models the bursty HPC I/O the paper's Observation #4
// calls out.
type Bursty struct {
	// On and Off are the durations of the high and low phases.
	On, Off time.Duration
	// High and Low are the demands during each phase.
	High, Low wire.Rates
	// Phase shifts the cycle so stages need not burst in lockstep.
	Phase time.Duration
}

// Demand implements Generator.
func (b Bursty) Demand(t time.Duration) wire.Rates {
	period := b.On + b.Off
	if period <= 0 {
		return b.High
	}
	pos := (t + b.Phase) % period
	if pos < 0 {
		pos += period
	}
	if pos < b.On {
		return b.High
	}
	return b.Low
}

// Ramp linearly interpolates demand from From to To over Over, then holds
// To. It models a job's I/O intensity growing as it scales up.
type Ramp struct {
	// From and To are the initial and final demands.
	From, To wire.Rates
	// Over is the ramp duration.
	Over time.Duration
}

// Demand implements Generator.
func (r Ramp) Demand(t time.Duration) wire.Rates {
	if r.Over <= 0 || t >= r.Over {
		return r.To
	}
	if t <= 0 {
		return r.From
	}
	f := float64(t) / float64(r.Over)
	out := r.From
	for c := range out {
		out[c] += (r.To[c] - r.From[c]) * f
	}
	return out
}

// RandomWalk emits demand that wanders around Mean with relative amplitude
// Jitter, changing every Step. It is deterministic in (Seed, t).
type RandomWalk struct {
	// Mean is the central demand.
	Mean wire.Rates
	// Jitter is the maximum relative deviation (0.2 = ±20%).
	Jitter float64
	// Step is how often the demand changes. Zero means one second.
	Step time.Duration
	// Seed makes distinct stages decorrelated but reproducible.
	Seed int64
}

// Demand implements Generator.
func (w RandomWalk) Demand(t time.Duration) wire.Rates {
	step := w.Step
	if step <= 0 {
		step = time.Second
	}
	slot := int64(t / step)
	rng := rand.New(rand.NewSource(w.Seed*1_000_003 + slot))
	out := w.Mean
	for c := range out {
		dev := (rng.Float64()*2 - 1) * w.Jitter
		out[c] *= 1 + dev
		if out[c] < 0 {
			out[c] = 0
		}
	}
	return out
}

// Parse builds a generator from a compact CLI spec:
//
//	constant:<data>,<meta>
//	stress
//	bursty:<data>,<meta>:<onSec>:<offSec>
//	ramp:<data>,<meta>:<overSec>            (ramps from zero)
//	walk:<data>,<meta>:<jitter>
func Parse(spec string) (Generator, error) {
	parts := strings.Split(spec, ":")
	rates := func(s string) (wire.Rates, error) {
		var r wire.Rates
		fields := strings.Split(s, ",")
		if len(fields) != int(wire.NumClasses) {
			return r, fmt.Errorf("workload: want %d comma-separated rates, got %q", wire.NumClasses, s)
		}
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return r, fmt.Errorf("workload: bad rate %q: %v", f, err)
			}
			r[i] = v
		}
		return r, nil
	}
	seconds := func(s string) (time.Duration, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("workload: bad seconds %q: %v", s, err)
		}
		return time.Duration(v * float64(time.Second)), nil
	}

	switch parts[0] {
	case "stress":
		return Stress(), nil
	case "constant":
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: constant wants 1 argument, got %q", spec)
		}
		r, err := rates(parts[1])
		if err != nil {
			return nil, err
		}
		return Constant{Rates: r}, nil
	case "bursty":
		if len(parts) != 4 {
			return nil, fmt.Errorf("workload: bursty wants 3 arguments, got %q", spec)
		}
		r, err := rates(parts[1])
		if err != nil {
			return nil, err
		}
		on, err := seconds(parts[2])
		if err != nil {
			return nil, err
		}
		off, err := seconds(parts[3])
		if err != nil {
			return nil, err
		}
		return Bursty{On: on, Off: off, High: r}, nil
	case "ramp":
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: ramp wants 2 arguments, got %q", spec)
		}
		r, err := rates(parts[1])
		if err != nil {
			return nil, err
		}
		over, err := seconds(parts[2])
		if err != nil {
			return nil, err
		}
		return Ramp{To: r, Over: over}, nil
	case "walk":
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: walk wants 2 arguments, got %q", spec)
		}
		r, err := rates(parts[1])
		if err != nil {
			return nil, err
		}
		jitter, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: bad jitter %q: %v", parts[2], err)
		}
		return RandomWalk{Mean: r, Jitter: jitter, Seed: 1}, nil
	}
	return nil, fmt.Errorf("workload: unknown generator %q (known: stress, constant, bursty, ramp, walk)", parts[0])
}
