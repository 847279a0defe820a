// Command bench is the repository's control-cycle benchmark: one workload
// per process, measured from outside through the accessors the program
// already exports. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value; the unit comes from the catalogue below.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	stages   int // 0: the workload's own size
	cycles   int // >0: fixed cycle count instead of -seconds, and a short layer replay
	outDir   string
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every choice the harness makes")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.IntVar(&o.stages, "stages", 0, "override the fleet size (tests and sizing only)")
	fs.IntVar(&o.cycles, "cycles", 0, "measure exactly this many cycles instead of -seconds and shorten the layer replay (tests and sizing only)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	s, ok := findSpec(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.stages > 0 {
		s.stages = o.stages
	}
	// The closed loop has one caller; the processes it drives get at most
	// four cores, so a many-core host does not change the shape measured.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printStamp(out, s, o)

	var (
		res   result
		names []string
		err   error
	)
	if o.trace {
		names = layerNames()
		res, err = tracedPass(out, s, o)
	} else {
		names = endToEndNames()
		res, err = measuredPass(out, s, o)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
		return 1
	}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-40s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-40s %16d\n%-40s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
	fmt.Fprintf(out, "%-40s %16.6f ratio\n", "op_fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// setUp builds the fleet, runs the fixed warm-up and collects garbage: the
// whole of what setup_s times.
func setUp(ctx context.Context, s spec, seed uint64) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := s.build(s.stages, int64(seed))
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	if err := warm(ctx, f, s.warmup); err != nil {
		f.close()
		return nil, 0, err
	}
	runtime.GC()
	return f, time.Since(t0), nil
}

// steadyBand is how far the second half of a window may sit from the first
// before the window is called unsteady.
const steadyBand = 0.10

// measuredPass is the pass whose numbers are gated: tracing off, one set-up,
// one window.
func measuredPass(out io.Writer, s spec, o options) (result, error) {
	ctx := context.Background()
	f, setup, err := setUp(ctx, s, o.seed)
	if err != nil {
		return result{}, err
	}
	defer f.close()

	w := measure(ctx, s, f, s.warmup, until{cycles: o.cycles, seconds: o.seconds}, nil)
	findings := check(w, f)
	vals := w.values()
	vals["setup_s"] = setup.Seconds()

	fmt.Fprintf(out, "window: %d cycles in %.3f s after a set-up of %.3f s\n", w.cycles, w.wall.Seconds(), setup.Seconds())
	printDiagnostics(out, vals)
	return finish(out, w, findings, vals, endToEndNames())
}

// finish turns a window's findings and values into the result object. An
// unsteady window is reported loudly but does not fail the run: on a shared
// host the halves ratio trips on the neighbours' load (README, "Guards"),
// while a change in what the program does inside a window fails the exact
// count checks in check.
func finish(out io.Writer, w *window, findings []string, vals map[string]float64, names []string) (result, error) {
	if w.cycles == 0 || len(w.totalMs) == 0 {
		return result{}, fmt.Errorf("no cycle completed")
	}
	if hr := w.halvesRatio(); math.Abs(hr-1) > steadyBand {
		fmt.Fprintf(out, "UNSTEADY: second half of the window ran at %.3f x the first half (allowed %.2f-%.2f)\n",
			hr, 1-steadyBand, 1+steadyBand)
	}
	for _, msg := range findings {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", msg)
	}
	failed := uint64(w.cycleErrors) + (w.after.callErrors - w.before.callErrors) + uint64(len(findings))
	res := result{
		Correct:   failed == 0,
		Attempted: max(w.attempted(), 1),
		Failed:    failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, name := range names {
		v, ok := vals[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no finite value", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return res, nil
}

// printDiagnostics prints the window-derived layer metrics beside a measured
// pass, for the reader; they are not part of its result object.
func printDiagnostics(out io.Writer, vals map[string]float64) {
	var names []string
	for name := range vals {
		if strings.Contains(name, ".") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  (%s %.4f %s)\n", name, vals[name], units[name])
	}
}

// printStamp records where and how the numbers were taken.
func printStamp(out io.Writer, s spec, o options) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	pass := "measured"
	if o.trace {
		pass = "traced"
	}
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s gogc=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, commit)
	fmt.Fprintf(out, "run: workload=%s pass=%s transport=%s stages=%d warmup_cycles=%d seed=%d seconds=%g cycles=%d\n",
		s.name, pass, s.transport, s.stages, s.warmup, o.seed, o.seconds, o.cycles)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
