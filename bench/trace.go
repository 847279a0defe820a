package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one harness-side trace record: a call (or a batch of Calls
// identical calls) the harness made into a layer's public function. Cycle
// spans and replay sections are roots (Parent 0); a section's batches are
// its children. Spans inside the program are a later issue — these are
// recorded from the benchmark's own files only.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cycle    int    `json:"cycle"`
	Calls    int    `json:"calls"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the pass ends. A nil
// tracer is tracing off: begin returns 0 and end ignores it. It is used from
// the single harness goroutine only.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) begin(name string, parent, cycle, calls int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		Cycle: cycle, Calls: calls, StartNs: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.origin))
}

// selfNsPerCall returns, for every span named name, its self time — its
// duration minus what its child spans cover — divided by its Calls.
func (t *tracer) selfNsPerCall(name string) []float64 {
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Calls > 0 {
			out = append(out, float64(s.EndNs-s.StartNs-covered[s.ID])/float64(s.Calls))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for an empty slice). It sorts a copy.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }
