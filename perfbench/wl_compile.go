package main

import (
	"fmt"
	"strings"
	"time"

	"dhpf"
	"dhpf/internal/nas"
)

// compileSources are the compile stage's programs at the existing
// BenchmarkCompile* sizes (LU and modular SP at SP's size), on a 2×2
// grid.
var compileSources = []struct {
	name string
	src  string
}{
	{"sp", nas.SPSource(32, 2, 2, 2)},
	{"bt", nas.BTSource(24, 2, 2, 2)},
	{"lu", nas.LUSource(32, 2, 2, 2)},
	{"spmod", nas.SPModSource(32, 2, 2, 2)},
}

// editBase is the modular SP source the edit phase (and dhpfd's edit
// class) changes one procedure of.
var editBase = nas.SPModSource(32, 2, 2, 2)

// maxEdits bounds the distinct edit constants.
const maxEdits = 999_999

// warmEdit returns the modular SP source with the CoefAdd term of its
// add procedure set to a constant derived from c: a one-procedure edit,
// distinct for each c in 1..maxEdits.
func warmEdit(base string, c int) (string, error) {
	edited := strings.Replace(base, " + 0.1*(rhs(1", fmt.Sprintf(" + 0.1%06d*(rhs(1", c), 1)
	if edited == base {
		return "", fmt.Errorf("warm-edit marker not found in the modular SP source")
	}
	return edited, nil
}

// editCheckEvery is how often an edit's output is compared with a cold
// compile of the same edited source (outside the timed region).
const editCheckEvery = 16

// coldShare is the part of each round of the stage spent on cold
// compiles; the rest runs edits.
const coldShare = 0.6

// compileSamples are one side's (untraced or traced) raw figures.
type compileSamples struct {
	cold     []samples // by program
	edit     samples
	passWall map[string]*samples
	allocs   []samples // by program
	allocKB  []samples
	dirty    float64 // summed dirty-procedure ratios of the edits
	hits     float64 // artifact hits and lookups of the edits
	lookups  float64
}

func newCompileSamples() *compileSamples {
	n := len(compileSources)
	return &compileSamples{cold: make([]samples, n), passWall: map[string]*samples{},
		allocs: make([]samples, n), allocKB: make([]samples, n)}
}

// compileStage is the compile stage: cold compiles of compileSources in
// seeded round-robin, then distinct one-procedure edits of modular SP
// through one dhpf.Incremental.
type compileStage struct {
	b                  *bench
	opt                dhpf.Options
	digests            *digestGate
	inc                *dhpf.Incremental
	order              []int
	edits              []int
	coldDone, editDone int
	side               [2]*compileSamples // untraced, traced
}

func newCompileStage(b *bench) (*compileStage, error) {
	opt := dhpf.DefaultOptions()
	s, err := timeSetup(b, func() (*compileStage, error) {
		s := &compileStage{b: b, opt: opt, digests: newDigestGate(), inc: dhpf.NewIncremental(artifactBytes)}
		for _, src := range compileSources {
			p, err := dhpf.Compile(src.src, nil, opt)
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", src.name, err)
			}
			s.digests.pin(src.name, programDigest(p))
		}
		if _, _, err := s.inc.Compile(editBase, nil, opt); err != nil {
			return nil, fmt.Errorf("incremental compile of the edit base: %w", err)
		}
		return s, nil
	}, func(*compileStage) {})
	if err != nil {
		return nil, err
	}
	s.order = coldOrder(b.seed, len(compileSources), 1<<16)
	s.edits = editConstants(b.seed, 1<<16)
	s.side = [2]*compileSamples{newCompileSamples(), newCompileSamples()}
	return s, nil
}

func (s *compileStage) name() string   { return "compile" }
func (s *compileStage) share() float64 { return compileShare }
func (s *compileStage) close()         {}

func (s *compileStage) measure(d time.Duration, tr *tracer) error {
	b := s.b
	acc := s.side[sideOf(tr)]
	var meter allocMeter
	end := time.Now().Add(time.Duration(coldShare * float64(d)))
	for time.Now().Before(end) {
		k := s.order[s.coldDone%len(s.order)]
		s.coldDone++
		src := compileSources[k]
		opID := tr.id()
		var m0, b0 uint64
		if tr != nil {
			m0, b0 = meter.read()
		}
		t0 := time.Now()
		p, err := dhpf.Compile(src.src, nil, s.opt)
		t1 := time.Now()
		tr.record(tr.id(), opID, opID, "passes.Compile", t0, t1)
		b.op(err)
		if err != nil {
			continue
		}
		acc.cold[k].add(t1.Sub(t0))
		if tr != nil {
			m1, b1 := meter.read()
			acc.allocs[k] = append(acc.allocs[k], float64(m1-m0))
			acc.allocKB[k] = append(acc.allocKB[k], float64(b1-b0)/1024)
			for _, ps := range p.PassStats() {
				if acc.passWall[ps.Name] == nil {
					acc.passWall[ps.Name] = &samples{}
				}
				acc.passWall[ps.Name].add(ps.Wall)
			}
		}
		tr.call("gate.digest", opID, opID, func() {
			if err := s.digests.check(src.name, programDigest(p)); err != nil {
				b.fail(err)
			}
		})
		tr.record(opID, 0, opID, "op.compile."+src.name, t0, time.Now())
	}

	end = time.Now().Add(d - time.Duration(coldShare*float64(d)))
	for time.Now().Before(end) {
		n := s.editDone
		c := s.edits[n%len(s.edits)]
		s.editDone++
		src, err := warmEdit(editBase, c)
		if err != nil {
			return err
		}
		opID := tr.id()
		t0 := time.Now()
		p, delta, err := s.inc.Compile(src, nil, s.opt)
		t1 := time.Now()
		tr.record(tr.id(), opID, opID, "passes.Incremental.Compile", t0, t1)
		if err == nil && (delta.Dirty < 1 || delta.Dirty >= delta.Procs) {
			err = fmt.Errorf("edit %d: %d of %d procedures dirty, want a one-procedure edit", c, delta.Dirty, delta.Procs)
		}
		b.op(err)
		if err != nil {
			continue
		}
		acc.edit.add(t1.Sub(t0))
		acc.dirty += float64(delta.Dirty) / float64(delta.Procs)
		acc.hits += float64(delta.ArtifactHits)
		acc.lookups += float64(delta.ArtifactHits + delta.ArtifactMisses)
		if n%editCheckEvery == 0 {
			tr.call("gate.edit_vs_cold", opID, opID, func() {
				if err := checkEdit(src, p, s.opt); err != nil {
					b.fail(fmt.Errorf("edit %d: %w", c, err))
				}
			})
		}
		tr.record(opID, 0, opID, "op.edit", t0, time.Now())
	}
	return nil
}

// timings returns one side's end-to-end figures and notes its sample
// counts and tails.
func (s *compileStage) timings(side int) map[string]float64 {
	acc := s.side[side]
	var med, tail []float64
	byProgram := map[string]float64{}
	for k, src := range compileSources {
		med = append(med, median(acc.cold[k]))
		tail = append(tail, percentile(acc.cold[k], coldTailPct))
		byProgram[src.name] = med[k]
	}
	// The tails go to the report only: with 10-15 samples beyond them
	// they moved by a quarter between seeds while the medians held
	// within 8%, so they cannot carry a regression bound.
	s.b.note(fmt.Sprintf("samples.compile.side%d", side), map[string]any{
		"cold_ms_by_program": byProgram,
		"cold_per_program":   len(acc.cold[0]), "edits": len(acc.edit),
		"compile_ms.cold.tail": geomean(tail), "cold_tail_beyond": beyond(len(acc.cold[0]), coldTailPct),
		"compile_ms.edit.tail": percentile(acc.edit, editTailPct), "edit_tail_beyond": beyond(len(acc.edit), editTailPct),
	})
	return map[string]float64{
		"compile_ms.cold": geomean(med),
		"compile_ms.edit": median(acc.edit),
	}
}

func (s *compileStage) finish() (plain, traced map[string]float64) {
	b := s.b
	plain = s.timings(0)
	if !b.trace {
		for k, v := range plain {
			b.set(k, v, "ms")
		}
		return plain, nil
	}
	traced = s.timings(1)
	acc := s.side[1]
	for _, name := range dhpf.PassNames() {
		v := 0.0
		if w := acc.passWall[name]; w != nil {
			v = median(*w)
		}
		b.set("pass_ms."+name, v, "ms")
	}
	var am, ak []float64
	for k := range acc.allocs {
		am = append(am, median(acc.allocs[k]))
		ak = append(ak, median(acc.allocKB[k]))
	}
	b.set("compile.allocs", geomean(am), "count")
	b.set("compile.alloc_kb", geomean(ak), "KiB")
	if len(acc.edit) > 0 {
		b.set("edit.dirty_ratio", acc.dirty/float64(len(acc.edit)), "ratio")
	}
	if acc.lookups > 0 {
		b.set("edit.artifact_hit_ratio", acc.hits/acc.lookups, "ratio")
	}
	return plain, traced
}

// Tail percentiles, reported in the run's report file: the highest of
// p85/p90/p95/p99 leaving at least ten samples beyond it in a 40 s run
// (~80 cold compiles per program, ~800 edits).
const (
	coldTailPct = 85
	editTailPct = 98
)

// checkEdit compiles src cold and requires the incremental result to be
// byte-identical in report and node programs.
func checkEdit(src string, p *dhpf.Program, opt dhpf.Options) error {
	cold, err := dhpf.Compile(src, nil, opt)
	if err != nil {
		return fmt.Errorf("cold compile: %w", err)
	}
	if programDigest(p) != programDigest(cold) {
		return fmt.Errorf("incremental output differs from a cold compile")
	}
	return nil
}
