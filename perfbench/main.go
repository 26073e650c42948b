// Command perfbench is the repository's benchmark.  It drives the
// compiler, the execution engines and the dhpfd service through their
// public entry points, times those calls from outside, checks every
// output, and prints one JSON result line.
//
//	perfbench --workload closure|native --seed N --seconds S --trace 0|1
//
// Every workload runs three stages, each for its share of S, taken in
// turn in rounds of a few seconds: compile (cold compiles and
// one-procedure edits), exec (steady-state NAS steps on every backend)
// and dhpfd (an in-process service under an open and then a closed
// loop).  The workloads differ in the execution engine that the exec
// stage and dhpfd's /v1/run requests use: the closure engine, or the
// native codegen tier.  So every workload reports every metric
// BENCHMARK.json lists.
//
// With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
// alternates untraced and traced rounds (spans, allocation counters and
// a CPU profile), and reports the per-layer metrics plus the tracing
// overhead.  BENCHMARK.json at
// the repository root lists the metrics, their bounds and why each
// workload exists; the result line carries exactly its metrics, and a
// run that lacks one fails.  run.sh builds and runs this program from
// the repository root.
//
// Left out on purpose: /v1/run requests with passes ablated (with §7
// availability off they deadlock and pin a dhpfd worker), codegen
// plugin builds (their time depends on the toolchain's build cache),
// multi-replica fleet peers, and the tuner, which only consumes the
// measured layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to the execution engine of its exec
// stage and of dhpfd's /v1/run requests.
var workloads = map[string]string{
	"closure": "compiled",
	"native":  "codegen",
}

// The stages' shares of --seconds; dhpfd has the rest.  dhpfd gets the
// most: its open loop sends few requests, and its figures spread the
// most between seeds.
const (
	compileShare = 0.2
	execShare    = 0.35
)

// setupRepeats is how many times each stage builds its state; the
// median of those times is the stage's set-up time, setup_s is their
// sum, and the last state is measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its settings, the operation and failure
// counts, and the metrics it reports.
type bench struct {
	workload string
	engine   string
	seed     uint64
	seconds  time.Duration
	trace    bool

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
	metrics   map[string]metric
	info      map[string]any

	setup         float64            // summed stage set-up medians, seconds
	tr            *tracer            // nil when untraced
	plain, traced map[string]float64 // the stages' timings, for trace.overhead
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.fail(err)
	}
}

// fail marks an operation already counted by op as failed, for a gate
// that runs after the operation.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, err.Error())
	}
	b.mu.Unlock()
}

func (b *bench) set(name string, v float64, unit string) {
	b.mu.Lock()
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.mu.Unlock()
}

// note adds a value to the side report (not a metric).
func (b *bench) note(key string, v any) {
	b.mu.Lock()
	b.info[key] = v
	b.mu.Unlock()
}

// timeSetup runs fn setupRepeats times, adds the median time to the
// run's set-up time, and returns the last state.  Every earlier state
// is released first.
func timeSetup[S any](b *bench, fn func() (S, error), release func(S)) (S, error) {
	var st S
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(st)
		}
		t0 := time.Now()
		s, err := fn()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	b.setup += median(times)
	return st, nil
}

// roundLen is the length of one round.  A run measures its stages in
// turn, round after round, so that a slow spell of the shared host
// falls on every stage's samples alike and the medians over the whole
// run pass over it; each stage's state stays warm across rounds.  A
// traced run alternates untraced and traced rounds.
const roundLen = 5 * time.Second

// stage is one part of a workload.  measure runs it for d, adding its
// samples to the untraced or (tr non-nil) the traced side; finish sets
// its metrics and returns each side's timing figures (ms, by name) for
// the overhead report.
type stage interface {
	name() string
	share() float64
	measure(d time.Duration, tr *tracer) error
	finish() (plain, traced map[string]float64)
	close()
}

// sideOf is the sample side a round records into: 0 untraced, 1 traced.
func sideOf(tr *tracer) int {
	if tr == nil {
		return 0
	}
	return 1
}

// noteHeap adds the live heap after a collection to the report, under
// when: the stages' states are all alive during the rounds, and their
// size sets what each collection costs.
func (b *bench) noteHeap(when string) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.note("heap_live_mb."+when, float64(ms.HeapAlloc)/(1<<20))
}

// rounds is the number of rounds in a run, even so that a traced run
// has as many traced rounds as untraced ones.
func rounds(seconds time.Duration) int {
	return 2 * max(1, int(math.Round(float64(seconds)/float64(2*roundLen))))
}

// run sets up the three stages and measures them round by round.
func (b *bench) run() error {
	var stages []stage
	defer func() {
		for _, s := range stages {
			s.close()
		}
	}()
	n := rounds(b.seconds)
	cs, err := newCompileStage(b)
	if err != nil {
		return fmt.Errorf("compile stage: %w", err)
	}
	stages = append(stages, cs)
	b.noteHeap("compile")
	es, err := newExecStage(b)
	if err != nil {
		return fmt.Errorf("exec stage: %w", err)
	}
	stages = append(stages, es)
	b.noteHeap("exec")
	ds, err := newDhpfdStage(b, time.Duration((1-compileShare-execShare)*float64(b.seconds)))
	if err != nil {
		return fmt.Errorf("dhpfd stage: %w", err)
	}
	stages = append(stages, ds)
	b.noteHeap("dhpfd")
	for r := 0; r < n; r++ {
		var tr *tracer
		if b.trace && r%2 == 1 {
			tr = b.tr
		}
		for _, s := range stages {
			// Each stage starts from a collected heap, so what set-up or
			// another stage left behind does not decide when its first
			// collections fall.
			runtime.GC()
			d := time.Duration(s.share() * float64(b.seconds) / float64(n))
			if err := s.measure(d, tr); err != nil {
				return fmt.Errorf("%s stage: %w", s.name(), err)
			}
		}
	}
	b.noteHeap("end")
	for _, s := range stages {
		plain, traced := s.finish()
		maps.Copy(b.plain, plain)
		maps.Copy(b.traced, traced)
	}
	if !b.trace {
		b.set("setup_s", b.setup, "s")
		b.set("peak_rss_mb", peakRSSMB(), "MB")
		return nil
	}
	var ratios []float64
	for k, p := range b.plain {
		if t, ok := b.traced[k]; ok && p > 0 && t > 0 {
			ratios = append(ratios, t/p)
		}
	}
	b.note("untraced", b.plain)
	b.note("traced", b.traced)
	b.set("trace.overhead", geomean(ratios), "ratio")
	b.set("trace.spans", float64(b.tr.count()), "count")
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.writeJSONL(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.note("spans_file", path)
	return nil
}

// outDir, relative to the repository root, receives spans, reports and
// the dhpfd stage's store.
const outDir = ".bench_build/perfbench"

// manifestPath, relative to the repository root, lists the metrics a
// result line carries.
const manifestPath = "BENCHMARK.json"

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifestMetrics returns the metrics BENCHMARK.json lists for a run
// with or without tracing.
func manifestMetrics(path string, trace bool) ([]manifestMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if trace {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// selectMetrics returns exactly the listed metrics, each with its
// listed unit and a finite value; anything else measured is left to
// the report.
func selectMetrics(got map[string]metric, want []manifestMetric) (map[string]metric, error) {
	if len(want) == 0 {
		return nil, fmt.Errorf("no metrics listed")
	}
	out := map[string]metric{}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, listed in %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s has no value", w.Name)
		}
		out[w.Name] = m
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload: closure or native")
	seed := flag.Uint64("seed", 1, "seed fixing operation order, edit constants, cold params and arrival times")
	seconds := flag.Int("seconds", 40, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	engine, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload closure|native --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	want, err := manifestMetrics(manifestPath, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload, engine: engine, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		metrics: map[string]metric{}, info: map[string]any{},
		plain: map[string]float64{}, traced: map[string]float64{},
	}
	if b.trace {
		b.tr = newTracer()
	}
	b.note("host", hostInfo(b))
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	metrics, err := selectMetrics(b.metrics, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   metrics,
	}
	report := map[string]any{"workload": b.workload, "engine": b.engine, "seed": b.seed, "trace": b.trace,
		"result": res, "measured": b.metrics}
	for k, v := range b.info {
		report[k] = v
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", b.workload, b.seed, *traceFlag))
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		}
	}
	host, _ := json.Marshal(b.info["host"])
	fmt.Printf("host %s\n", host)
	fmt.Printf("report %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
