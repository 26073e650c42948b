package main

import (
	"fmt"
	"time"

	"dhpf"
	"dhpf/internal/codegen"
	// The checked-in kernel corpus: the native workload runs only kernels
	// registered here and never builds a plugin.
	_ "dhpf/internal/codegen/gen"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// execCodes are the exec stage's programs at the codegen corpus
// sizes, so every selected unit has a pre-generated kernel; arrays are
// the solution arrays the nas package's tests compare (privatized
// arrays such as SP's cv have no defined final contents).
var execCodes = []struct {
	name   string
	src    string
	arrays []string
}{
	{"sp", nas.SPSource(16, 1, 2, 2), []string{"u", "rhs"}},
	{"bt", nas.BTSource(12, 1, 2, 2), []string{"u", "r"}},
	{"lu", nas.LUSource(16, 1, 2, 2), []string{"u", "v"}},
}

var execBackends = []string{dhpf.BackendMP, dhpf.BackendShm, dhpf.BackendHybrid}

const execRanks = 4

// stepTailPct is the per-cell tail percentile of the report's
// step_ms.tail: the closure workload's exec stage (14 s of a 40 s run)
// gets about 65 steps per cell, so p80 leaves ~13 beyond it.  It is not
// a metric: over ten seeds its spread reached 0.26-0.29 of its median,
// past any bound, while the step medians' stayed at a half of that.
const stepTailPct = 80

// cell is one code × backend program, compiled and warmed.
type cell struct {
	code, backend string
	codeIdx       int
	prog          *spmd.Program
	pred          *dhpf.AnalyzeCost
	virtual       float64 // simulated makespan, seconds
	selected      int     // kernel units codegen selects
	registered    int     // of those, units with a registered kernel
}

func (c *cell) name() string { return c.code + "." + c.backend }

type execState struct {
	cells   []*cell
	digests *digestGate
}

// execSamples are one side's (untraced or traced) raw figures.
type execSamples struct {
	times   []samples // by cell
	allocs  []samples // by code
	allocKB []samples
	groups  map[string]int64 // CPU profile samples by group
	total   int64
}

// execStage is the exec stage: steady-state steps of every cell in
// seeded round-robin on the workload's engine.
type execStage struct {
	b      *bench
	engine spmd.Engine
	cfg    mpsim.Config
	st     *execState
	order  []int
	done   int
	side   [2]*execSamples // untraced, traced
}

func newExecStage(b *bench) (*execStage, error) {
	engine, err := spmd.ParseEngine(b.engine)
	if err != nil {
		return nil, err
	}
	cfg := mpsim.SP2Config(execRanks)
	st, err := timeSetup(b, func() (*execState, error) { return setupExec(engine, b.engine, cfg) }, func(*execState) {})
	if err != nil {
		return nil, err
	}
	s := &execStage{b: b, engine: engine, cfg: cfg, st: st, order: execOrder(b.seed, len(st.cells), 1<<16)}
	for k := range s.side {
		s.side[k] = &execSamples{times: make([]samples, len(st.cells)),
			allocs: make([]samples, len(execCodes)), allocKB: make([]samples, len(execCodes)),
			groups: map[string]int64{}}
	}
	return s, nil
}

func (s *execStage) name() string   { return "exec" }
func (s *execStage) share() float64 { return execShare }
func (s *execStage) close()         {}

func (s *execStage) measure(d time.Duration, tr *tracer) error {
	b, st := s.b, s.st
	acc := s.side[sideOf(tr)]
	var meter allocMeter
	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		k := s.order[s.done%len(s.order)]
		s.done++
		c := st.cells[k]
		opID := tr.id()
		var m0, b0 uint64
		if tr != nil {
			m0, b0 = meter.read()
		}
		t0 := time.Now()
		res, err := c.prog.ExecuteEngine(s.cfg, s.engine)
		t1 := time.Now()
		tr.record(tr.id(), opID, opID, "spmd.ExecuteEngine."+c.backend, t0, t1)
		if err == nil {
			acc.times[k].add(t1.Sub(t0))
			if tr != nil {
				m1, b1 := meter.read()
				acc.allocs[c.codeIdx] = append(acc.allocs[c.codeIdx], float64(m1-m0))
				acc.allocKB[c.codeIdx] = append(acc.allocKB[c.codeIdx], float64(b1-b0)/1024)
			}
			tr.call("gate.step", opID, opID, func() { err = checkStep(st.digests, c, res) })
		}
		b.op(err)
		tr.record(opID, 0, opID, "op.step."+c.name(), t0, time.Now())
	}
	if prof != nil {
		groups, total, err := prof.stop()
		if err != nil {
			return err
		}
		for g, n := range groups {
			acc.groups[g] += n
		}
		acc.total += total
	}
	return nil
}

// timings returns one side's end-to-end figures.
func (s *execStage) timings(side int) map[string]float64 {
	acc := s.side[side]
	out := map[string]float64{}
	for ci, code := range execCodes {
		var meds []float64
		for k, c := range s.st.cells {
			if c.codeIdx == ci {
				meds = append(meds, median(acc.times[k]))
			}
		}
		out["step_ms."+code.name] = geomean(meds)
	}
	var tails []float64
	for k := range s.st.cells {
		tails = append(tails, percentile(acc.times[k], stepTailPct))
	}
	s.b.note(fmt.Sprintf("samples.exec.side%d", side), map[string]any{
		"per_cell": len(acc.times[0]), "step_ms.tail": geomean(tails),
		"tail_beyond": beyond(len(acc.times[0]), stepTailPct)})
	return out
}

func (s *execStage) finish() (plain, traced map[string]float64) {
	b := s.b
	plain = s.timings(0)
	if !b.trace {
		for k, v := range plain {
			b.set(k, v, "ms")
		}
		var virt []float64
		for _, c := range s.st.cells {
			virt = append(virt, c.virtual*1e3)
		}
		b.set("virtual_ms", geomean(virt), "sim_ms")
		return plain, nil
	}
	traced = s.timings(1)
	acc := s.side[1]
	for k, c := range s.st.cells {
		b.set("cell_ms."+c.name(), median(acc.times[k]), "ms")
	}
	for ci, code := range execCodes {
		b.set("allocs_per_step."+code.name, median(acc.allocs[ci]), "count")
		b.set("alloc_kb_per_step."+code.name, median(acc.allocKB[ci]), "KiB")
		var sel, reg int
		for _, c := range s.st.cells {
			if c.codeIdx == ci {
				sel += c.selected
				reg += c.registered
			}
		}
		if sel > 0 {
			b.set("native_ratio."+code.name, float64(reg)/float64(sel), "ratio")
		}
	}
	for _, g := range cpuGroups {
		share := 0.0
		if acc.total > 0 {
			share = float64(acc.groups[g]) / float64(acc.total)
		}
		b.set("cpu_share."+g, share, "ratio")
	}
	b.set("cpu_share.samples", float64(acc.total), "count")
	return plain, traced
}

// setupExec compiles and warms every cell and runs the set-up gates:
// each cell's arrays match the serial reference within serialTol and
// are bit-identical across backends and the compiled, codegen and
// public RunEngine paths; counters match the cost oracle.
func setupExec(engine spmd.Engine, engineName string, cfg mpsim.Config) (*execState, error) {
	st := &execState{digests: newDigestGate()}
	for ci, code := range execCodes {
		serial, err := dhpf.RunSerial(code.src, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: serial reference: %w", code.name, err)
		}
		for _, backend := range execBackends {
			c := &cell{code: code.name, backend: backend, codeIdx: ci}
			opt := dhpf.DefaultOptions()
			opt.Backend = backend
			if c.prog, err = spmd.CompileSource(code.src, nil, opt); err != nil {
				return nil, fmt.Errorf("%s: compile: %w", c.name(), err)
			}
			if c.pred, err = c.prog.PredictCost(); err != nil {
				return nil, fmt.Errorf("%s: predict cost: %w", c.name(), err)
			}
			sel := codegen.SelectUnits(c.prog, 0)
			c.selected = len(sel)
			for _, u := range sel {
				if spmd.KernelFor(u.Fingerprint()) != nil {
					c.registered++
				}
			}
			// The public path: dhpf.Compile + Program.RunEngine.
			pub, err := dhpf.Compile(code.src, nil, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: public compile: %w", c.name(), err)
			}
			pres, err := pub.RunEngine(cfg, engineName)
			if err != nil {
				return nil, fmt.Errorf("%s: RunEngine: %w", c.name(), err)
			}
			for _, a := range code.arrays {
				got, _, _, err := pres.Array(a)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", c.name(), err)
				}
				want, _, _, err := serial.Array(a)
				if err != nil {
					return nil, fmt.Errorf("%s: serial %w", c.name(), err)
				}
				if err := checkClose(a, got, want); err != nil {
					return nil, fmt.Errorf("%s vs serial: %w", c.name(), err)
				}
			}
			dg, err := digestArrays(code.arrays, pres.Array)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name(), err)
			}
			if err := st.digests.check(code.name, dg); err != nil {
				return nil, fmt.Errorf("backends disagree: %w", err)
			}
			c.virtual = pres.Seconds()
			// Warm both engines; each run must match the public one.
			for _, e := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineCodegen, engine} {
				res, err := c.prog.ExecuteEngine(cfg, e)
				if err != nil {
					return nil, fmt.Errorf("%s: warm-up: %w", c.name(), err)
				}
				if err := checkStep(st.digests, c, res); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
				if m := res.Machine; m.TotalMessages() != pres.Messages() || m.TotalBytes() != pres.Bytes() {
					return nil, fmt.Errorf("%s: engine %v traffic differs from RunEngine", c.name(), e)
				}
			}
			st.cells = append(st.cells, c)
		}
	}
	return st, nil
}

// checkStep is the per-step gate: counters equal the cost oracle, the
// simulated makespan repeats, and the arrays are bit-identical to every
// other step of the code.
func checkStep(g *digestGate, c *cell, res *spmd.ExecResult) error {
	if err := checkCost(c.pred, countersOf(res), c.backend != dhpf.BackendMP); err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	if c.virtual != 0 && res.Machine.Time != c.virtual {
		return fmt.Errorf("%s: simulated time %v, first run %v", c.name(), res.Machine.Time, c.virtual)
	}
	dg, err := digestArrays(execCodes[c.codeIdx].arrays, res.Global)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	return g.check(c.code, dg)
}
