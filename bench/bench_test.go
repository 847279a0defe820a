package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCatalogue holds BENCHMARK.json and the program's metric
// catalogue together: same workloads, same metric names and units.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d built in", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: listed %q, built in %q", i, w.Name, specs[i].name)
		}
		if w.Why != specs[i].why {
			t.Errorf("workload %s: why differs from the program's", w.Name)
		}
	}
	compare := func(kind string, listed []manifestMetric, have []entry, bounded bool) {
		if len(listed) != len(have) {
			t.Fatalf("%s: %d listed, %d in the catalogue", kind, len(listed), len(have))
		}
		for i, l := range listed {
			if l.Name != have[i].name || l.Unit != have[i].unit {
				t.Errorf("%s %d: listed %s [%s], catalogue %s [%s]", kind, i, l.Name, l.Unit, have[i].name, have[i].unit)
			}
			if !nameRE.MatchString(l.Name) {
				t.Errorf("%s: name %q outside the allowed alphabet", kind, l.Name)
			}
			if l.Better != "lower" && l.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, l.Name, l.Better)
			}
			if bounded != (l.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, l.Name, l.Bound != nil, bounded)
			}
			if l.Bound != nil && (*l.Bound <= 0 || *l.Bound > 0.25) {
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, l.Name, *l.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(m.PerLayer))
	}
	seen := map[string]bool{}
	for _, l := range append(m.EndToEnd, m.PerLayer...) {
		if seen[l.Name] {
			t.Errorf("metric %s listed twice", l.Name)
		}
		seen[l.Name] = true
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload small — 200 stages,
// 20 cycles — in both passes and checks the result object: every listed
// metric exactly once with a finite value, nothing failed. No timing is
// asserted.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, s := range specs {
		for _, pass := range []struct {
			trace string
			names []string
		}{{"0", endToEndNames()}, {"1", layerNames()}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{
				"--workload", s.name, "--seed", "7", "--trace", pass.trace,
				"-stages", "200", "-cycles", "20", "-out", out,
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", s.name, pass.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace=%s: last line is not JSON: %v", s.name, pass.trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%s: result has %d keys, want correct, attempted, failed, metrics", s.name, pass.trace, len(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", s.name, pass.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.names) {
				t.Errorf("%s trace=%s: %d metrics, want %d", s.name, pass.trace, len(res.Metrics), len(pass.names))
			}
			for _, name := range pass.names {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", s.name, pass.trace, name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %v", s.name, pass.trace, name, m.Value)
				}
				if m.Unit != units[name] {
					t.Errorf("%s trace=%s: metric %s unit %q, want %q", s.name, pass.trace, name, m.Unit, units[name])
				}
			}
			if pass.trace == "1" {
				if _, err := os.Stat(out + "/" + s.name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", s.name, err)
				}
			}
		}
	}
}

// TestByteRangeBelowFrameGrowth holds the warm-up lengths and the byte range
// together: the cycles the byte metrics cover must end before frames grow.
func TestByteRangeBelowFrameGrowth(t *testing.T) {
	for _, s := range specs {
		if s.warmup+byteCycles > firstGrowth {
			t.Errorf("%s: warm-up %d + %d byte cycles passes cycle %d", s.name, s.warmup, byteCycles, firstGrowth)
		}
	}
}
