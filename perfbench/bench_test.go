package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhpf"
	"dhpf/internal/mpsim"
	"dhpf/internal/spmd"
)

func TestSeedFixesOperationsAndArrivals(t *testing.T) {
	const n = 400
	hot, codes := len(hotSet()), len(execCodes)
	if !reflect.DeepEqual(dhpfdPlan(7, n, hot, codes), dhpfdPlan(7, n, hot, codes)) {
		t.Error("same seed, different dhpfd request plans")
	}
	if reflect.DeepEqual(dhpfdPlan(7, n, hot, codes), dhpfdPlan(8, n, hot, codes)) {
		t.Error("different seeds, identical dhpfd request plans")
	}
	d := 5 * time.Second
	if !reflect.DeepEqual(arrivals(7, openLoopRate, d), arrivals(7, openLoopRate, d)) {
		t.Error("same seed, different arrival schedules")
	}
	if reflect.DeepEqual(arrivals(7, openLoopRate, d), arrivals(8, openLoopRate, d)) {
		t.Error("different seeds, identical arrival schedules")
	}
	if !reflect.DeepEqual(coldOrder(7, 4, 64), coldOrder(7, 4, 64)) || reflect.DeepEqual(coldOrder(7, 4, 64), coldOrder(8, 4, 64)) {
		t.Error("cold compile order is not fixed by the seed alone")
	}
	if !reflect.DeepEqual(execOrder(7, 9, 64), execOrder(7, 9, 64)) || reflect.DeepEqual(execOrder(7, 9, 64), execOrder(8, 9, 64)) {
		t.Error("exec cell order is not fixed by the seed alone")
	}
	if !reflect.DeepEqual(editConstants(7, 64), editConstants(7, 64)) || reflect.DeepEqual(editConstants(7, 64), editConstants(8, 64)) {
		t.Error("edit constants are not fixed by the seed alone")
	}
}

func TestPlanKeepsMixAndUniqueness(t *testing.T) {
	plan := dhpfdPlan(3, 40*dhpfdBlockLen, len(hotSet()), len(execCodes))
	seen := map[string]map[int]bool{}
	restart := 0
	for b := 0; b < len(plan)/dhpfdBlockLen; b++ {
		count := map[string]int{}
		for _, q := range plan[b*dhpfdBlockLen : (b+1)*dhpfdBlockLen] {
			count[q.Class]++
			if seen[q.Class] == nil {
				seen[q.Class] = map[int]bool{}
			}
			switch q.Class {
			case classCold, classEdit:
				if seen[q.Class][q.Arg] {
					t.Fatalf("%s argument %d repeats", q.Class, q.Arg)
				}
			case classRestart:
				if q.Arg != restart {
					t.Fatalf("restart index %d, want %d", q.Arg, restart)
				}
				restart++
			}
			seen[q.Class][q.Arg] = true
		}
		if !reflect.DeepEqual(count, dhpfdBlock) {
			t.Fatalf("block %d mix %v, want %v", b, count, dhpfdBlock)
		}
	}
	if len(seen[classWarm]) != len(hotSet()) || len(seen[classRun]) != len(execCodes) {
		t.Errorf("round-robin missed programs: warm %d, run %d", len(seen[classWarm]), len(seen[classRun]))
	}
	due := arrivals(3, openLoopRate, 10*time.Second)
	if len(due) != int(10*openLoopRate) {
		t.Errorf("%d arrivals in 10 s at %v/s", len(due), openLoopRate)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

func TestDigestGateFiresOnWrongDigest(t *testing.T) {
	g := newDigestGate()
	if err := g.check("sp", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := g.check("sp", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := g.check("sp", "bbbb"); err == nil {
		t.Error("a changed digest passed")
	}
	g.pin("fp", "cccc")
	if err := g.check("fp", "dddd"); err == nil {
		t.Error("a digest differing from the pinned one passed")
	}
}

// TestExecGatesFire runs one real cell and injects a wrong counter, a
// wrong array value and a wrong simulated time into its result.
func TestExecGatesFire(t *testing.T) {
	code := execCodes[2] // lu, the cheapest
	for _, backend := range []string{dhpf.BackendMP, dhpf.BackendShm} {
		opt := dhpf.DefaultOptions()
		opt.Backend = backend
		prog, err := spmd.CompileSource(code.src, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := prog.PredictCost()
		if err != nil {
			t.Fatal(err)
		}
		c := &cell{code: code.name, backend: backend, codeIdx: 2, prog: prog, pred: pred}
		cfg := mpsim.SP2Config(execRanks)
		run := func() *spmd.ExecResult {
			res, err := prog.ExecuteEngine(cfg, spmd.EngineCompiled)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		g := newDigestGate()
		res := run()
		c.virtual = res.Machine.Time
		if err := checkStep(g, c, res); err != nil {
			t.Fatalf("%s: clean step failed its gate: %v", backend, err)
		}
		inject := map[string]func(*spmd.ExecResult){
			"flops":    func(r *spmd.ExecResult) { r.Machine.RankFlops[1]++ },
			"messages": func(r *spmd.ExecResult) { r.Machine.SentMsgs[0]++ },
			"bytes":    func(r *spmd.ExecResult) { r.Machine.SentBytes[3] += 8 },
			"time":     func(r *spmd.ExecResult) { r.Machine.Time *= 1.5 },
		}
		if backend == dhpf.BackendShm {
			inject["pulls"] = func(r *spmd.ExecResult) { r.Shm.Pulls[0]++ }
			inject["barriers"] = func(r *spmd.ExecResult) { r.Shm.Barriers++ }
		}
		for name, mutate := range inject {
			res := run()
			mutate(res)
			if err := checkStep(g, c, res); err == nil {
				t.Errorf("%s: wrong %s passed the step gate", backend, name)
			}
		}
		g.pin(code.name, "wrong")
		if err := checkStep(g, c, run()); err == nil {
			t.Errorf("%s: wrong array digest passed the step gate", backend)
		}
	}
}

func TestSerialToleranceGate(t *testing.T) {
	want := []float64{1, -2, 1e6}
	if err := checkClose("a", []float64{1 + 1e-12, -2, 1e6 * (1 + 1e-12)}, want); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if err := checkClose("a", []float64{1, -2 + 1e-8, 1e6}, want); err == nil {
		t.Error("an error of 1e-8 passed the 1e-10 gate")
	}
	if err := checkClose("a", want[:2], want); err == nil {
		t.Error("a short array passed")
	}
}

func TestCompileGatesFire(t *testing.T) {
	opt := dhpf.DefaultOptions()
	edited, err := warmEdit(editBase, 42)
	if err != nil {
		t.Fatal(err)
	}
	inc := dhpf.NewIncremental(0)
	if _, _, err := inc.Compile(editBase, nil, opt); err != nil {
		t.Fatal(err)
	}
	p, _, err := inc.Compile(edited, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEdit(edited, p, opt); err != nil {
		t.Fatalf("a correct edit failed: %v", err)
	}
	other, err := warmEdit(editBase, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEdit(other, p, opt); err == nil {
		t.Error("an edit compared with a different cold compile passed")
	}
	if _, err := warmEdit("no marker", 1); err == nil {
		t.Error("warmEdit accepted a source without its marker")
	}
}

func TestRunResponseGateFires(t *testing.T) {
	ref := runRef{seconds: 0.5, messages: 10, bytes: 800, u: []float64{1, 2, 3}}
	good := func() *dhpf.RunResponse {
		return &dhpf.RunResponse{Seconds: 0.5, Messages: 10, Bytes: 800,
			Arrays: map[string]dhpf.ArrayJSON{"u": {Data: []float64{1, 2, 3}}}}
	}
	if err := compareRun(good(), ref); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*dhpf.RunResponse){
		"seconds":  func(r *dhpf.RunResponse) { r.Seconds = math.Nextafter(0.5, 1) },
		"messages": func(r *dhpf.RunResponse) { r.Messages++ },
		"bytes":    func(r *dhpf.RunResponse) { r.Bytes-- },
		"array":    func(r *dhpf.RunResponse) { r.Arrays["u"].Data[1] = math.Nextafter(2, 3) },
		"length":   func(r *dhpf.RunResponse) { r.Arrays = nil },
	} {
		r := good()
		mutate(r)
		if err := compareRun(r, ref); err == nil {
			t.Errorf("wrong %s passed the run gate", name)
		}
	}
	resp := &dhpf.CompileResponse{Fingerprint: "f", Ranks: 2, Report: "r", NodePrograms: map[int]string{0: "a", 1: "b"}}
	d := compileDigest(resp)
	resp.NodePrograms[1] = "c"
	if compileDigest(resp) == d {
		t.Error("compile response digest ignores node programs")
	}
}

func TestCostGateRequiresExact(t *testing.T) {
	pred := &dhpf.AnalyzeCost{Flops: []float64{1}, SentMsgs: []int64{0}, SentBytes: []int64{0}, RecvMsgs: []int64{0}}
	got := counters{Flops: []float64{1}, SentMsgs: []int64{0}, SentBytes: []int64{0}, RecvMsgs: []int64{0}}
	if err := checkCost(pred, got, false); err == nil {
		t.Error("an inexact prediction passed")
	}
	pred.Exact = true
	if err := checkCost(pred, got, false); err != nil {
		t.Error(err)
	}
	got.RecvMsgs = []int64{1}
	if err := checkCost(pred, got, false); err == nil {
		t.Error("a wrong receive count passed")
	}
}

func TestCPUGroupsSumToTotal(t *testing.T) {
	stacks := []weightedStack{
		{[]string{"dhpf/internal/codegen/gen.k0123"}, 3},
		{[]string{"dhpf/internal/spmd.(*rankExec).execPlanAssign"}, 5},
		{[]string{"dhpf/internal/mpsim.(*Rank).Send"}, 1},
		{[]string{"dhpf/internal/shm.(*Team).Barrier"}, 1},
		{[]string{"dhpf/internal/iset.Box.Intersect"}, 2},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 4},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "dhpf/internal/spmd.newFrame"}, 2},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, 6},
		{[]string{"runtime.memmove", "dhpf/internal/spmd.pack"}, 2},
		{[]string{"dhpf/internal/passes.Run"}, 1},
		{nil, 1},
		// The benchmark's own gate work counts in no group.
		{[]string{"dhpf/internal/spmd.(*ExecResult).Global", "main.checkStep"}, 9},
	}
	by, total := groupSamples(stacks)
	want := map[string]int64{"kernel": 3, "spmd": 5, "mpsim": 1, "shm": 1, "iset": 2, "gc": 6, "sched": 6, "other": 4}
	if !reflect.DeepEqual(by, want) {
		t.Errorf("groups %v, want %v", by, want)
	}
	var sum int64
	for _, g := range cpuGroups {
		sum += by[g]
	}
	if sum != total || total != 28 {
		t.Errorf("groups sum to %d, total %d, want 28", sum, total)
	}

	// A real profile: the groups of a parsed runtime/pprof profile also
	// sum to its sample count.
	prof, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	_ = x
	by, total, err = prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, g := range cpuGroups {
		sum += by[g]
	}
	if total == 0 || sum != total || len(by) != len(cpuGroups) {
		t.Errorf("real profile: groups %v sum to %d of %d samples", by, sum, total)
	}
}

func TestStats(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if median(s) != 3 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("median")
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if percentile(hundred, 90) != 90 || beyond(100, 90) != 10 || percentile(hundred, 85) != 85 {
		t.Error("nearest-rank percentile")
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean %v", g)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean of a zero should be undefined")
	}
	if !strings.HasPrefix(funcPackage("dhpf/internal/spmd.(*x).y"), "dhpf/internal/spmd") || funcPackage("runtime.mallocgc") != "runtime" {
		t.Error("funcPackage")
	}
}

// TestManifestMetrics checks that the result line carries exactly the
// metrics BENCHMARK.json lists, in their units, and that a run missing
// one, or measuring one in another unit, has no result.
func TestManifestMetrics(t *testing.T) {
	for _, trace := range []bool{false, true} {
		want, err := manifestMetrics("../"+manifestPath, trace)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]metric{"extra": {Value: 1, Unit: "ms"}}
		seen := map[string]bool{}
		for _, w := range want {
			if seen[w.Name] {
				t.Errorf("metric %s listed twice", w.Name)
			}
			seen[w.Name] = true
			got[w.Name] = metric{Value: 1, Unit: w.Unit}
		}
		sel, err := selectMetrics(got, want)
		if err != nil || len(sel) != len(want) {
			t.Fatalf("trace %v: selected %d of %d metrics: %v", trace, len(sel), len(want), err)
		}
		m := got[want[0].Name]
		delete(got, want[0].Name)
		if _, err := selectMetrics(got, want); err == nil {
			t.Errorf("trace %v: a missing metric passed", trace)
		}
		got[want[0].Name] = metric{Value: 1, Unit: m.Unit + "x"}
		if _, err := selectMetrics(got, want); err == nil {
			t.Errorf("trace %v: a metric in the wrong unit passed", trace)
		}
		got[want[0].Name] = metric{Value: math.NaN(), Unit: m.Unit}
		if _, err := selectMetrics(got, want); err == nil {
			t.Errorf("trace %v: a metric with no value passed", trace)
		}
	}
}
