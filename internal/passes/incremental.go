package passes

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dhpf/internal/analysis"
	"dhpf/internal/cache"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/dep"
	"dhpf/internal/ir"
	"dhpf/internal/parser"
	"dhpf/internal/verify"
)

// Delta summarizes one compile: how much of the program was dirty and
// how the artifact store fared (without a store, everything is dirty).
// Hits count artifacts thawed from the store; misses count artifacts
// that had to be recomputed (because there is no store, the procedure's
// environment fingerprint changed, the store had evicted the entry, or
// a thaw failed its consistency checks).
type Delta struct {
	Procs          int      `json:"procs"`
	Dirty          int      `json:"dirty"`
	DirtyProcs     []string `json:"dirty_procs,omitempty"`
	ArtifactHits   int64    `json:"artifact_hits"`
	ArtifactMisses int64    `json:"artifact_misses"`
}

func (d *Delta) String() string {
	return fmt.Sprintf("incremental: %d/%d procs dirty %v, %d artifacts reused, %d recomputed",
		d.Dirty, d.Procs, d.DirtyProcs, d.ArtifactHits, d.ArtifactMisses)
}

// scheduler is the per-compile state of the pass pipeline.  Its store
// memoizes per-procedure artifacts across compiles; a nil store is a
// cold compile, where get always misses and keep never freezes.
type scheduler struct {
	cc    *CompileContext
	store *cache.ArtifactStore
	// fps holds the unit and environment fingerprints the artifacts are
	// keyed by (nil without a store).
	fps *unitFingerprints
	// src is the compile's source text, or "" when the caller supplied a
	// pre-parsed program — the raw-text shortcut tiers (ast, rawunit) key
	// on source chunks and must stay off in that case.
	src string
	// dirty marks procedures whose dependence artifact was recomputed —
	// the procedures whose environment changed since the artifacts were
	// frozen.
	dirty map[*ir.Procedure]bool
	// selOrder is the bottom-up call-graph order the selection phases
	// iterate; selDirty marks procedures whose selection is being computed
	// this run (dirty, or whose frozen selection failed to thaw), and
	// selFrozen latches the one-shot freeze of their finished state at the
	// pre-distribution boundary.
	selOrder  []*ir.Procedure
	selDirty  map[*ir.Procedure]bool
	selFrozen bool
	// commFresh marks procedures whose communication plan was built this
	// run (rather than thawed); only these may have the elimination
	// phases applied, and only these are frozen at lower time.
	commFresh map[*ir.Procedure]bool
	delta     *Delta
}

func newScheduler(cc *CompileContext, store *cache.ArtifactStore) *scheduler {
	r := &scheduler{
		cc:        cc,
		store:     store,
		dirty:     map[*ir.Procedure]bool{},
		commFresh: map[*ir.Procedure]bool{},
		delta:     &Delta{},
	}
	if cc.IR == nil {
		r.src = cc.Source
	}
	return r
}

// get looks up proc's artifact of the given kind; without a store every
// lookup misses.
func (r *scheduler) get(kind string, proc *ir.Procedure) (any, bool) {
	if r.store == nil {
		return nil, false
	}
	return r.store.Get(artifactKey(kind, r.fps.Env[proc]))
}

// keep stores the artifact freeze builds for proc.  Without a store it
// does nothing, so a cold compile never pays for freezing.  A freeze
// error is returned and nothing is stored.
func (r *scheduler) keep(kind string, proc *ir.Procedure, freeze func() (any, error)) error {
	if r.store == nil {
		return nil
	}
	fz, err := freeze()
	if err != nil {
		return err
	}
	r.store.Put(artifactKey(kind, r.fps.Env[proc]), fz, approxSize(fz))
	return nil
}

// workers is the forEach pool size for per-procedure work.  A cold
// compile stays serial: its callers (a server's worker pool, a batch of
// sweep points) already run cold compiles side by side.
func (r *scheduler) workers() int {
	if r.store == nil {
		return 1
	}
	return 0
}

// miss counts one artifact recomputed this run.
func (r *scheduler) miss() {
	r.delta.ArtifactMisses++
	if r.store != nil {
		r.store.MarkDirty(1)
	}
}

// parse consults the front-end tier: the source is split into
// per-subroutine raw chunks, and chunks seen before (under the same
// header) skip the parser entirely — the pristine cached Procedure is
// deep-cloned into the program instead.  Only unseen chunks are parsed,
// as a synthetic source of header + dirty chunks (token-equivalent to
// their place in the full text).  Statement ids are then renumbered
// program-wide in cold parse order, so the assembled AST — and
// everything downstream that prints statement ids — is identical to a
// cold parse.  Without a store, and on any irregularity (unsplittable
// source, parse error, chunk/procedure mismatch), it is the plain
// whole-source runParse.
func (r *scheduler) parse() (bool, error) {
	cc := r.cc
	if r.store == nil || r.src == "" {
		return false, runParse(cc)
	}
	header, chunks := splitSource(r.src)
	if len(chunks) == 0 {
		return false, runParse(cc)
	}
	keys := make([]string, len(chunks))
	hit := make([]*ir.Procedure, len(chunks))
	misses := 0
	for i, ch := range chunks {
		h := sha256.Sum256([]byte(artifactVersion + "\x00ast\x00" + header + "\x00" + ch))
		keys[i] = artifactKey(artifactAST, hex.EncodeToString(h[:]))
		if v, ok := r.store.Get(keys[i]); ok {
			hit[i] = v.(*ir.Procedure)
		} else {
			misses++
		}
	}
	var sb strings.Builder
	sb.Grow(len(header) + len(r.src)/len(chunks)*misses + 64)
	sb.WriteString(header)
	for i, ch := range chunks {
		if hit[i] == nil {
			sb.WriteString(ch)
			sb.WriteByte('\n')
		}
	}
	prog, err := parser.Parse(sb.String())
	if err != nil || len(prog.Procs) != misses {
		// Either the chunking misjudged the source or the error position
		// would be misleading: report exactly what a cold parse reports.
		return false, runParse(cc)
	}
	procs := make([]*ir.Procedure, 0, len(chunks))
	next := 0
	for i := range chunks {
		if hit[i] != nil {
			procs = append(procs, ir.CloneProc(hit[i]))
			continue
		}
		proc := prog.Procs[next]
		next++
		procs = append(procs, proc)
		r.store.Put(keys[i], ir.CloneProc(proc), int64(128+8*len(chunks[i])))
	}
	prog.Procs = procs
	ir.RenumberStmts(prog)
	cc.IR = prog
	return misses == 0, nil
}

// dependence builds the CP context and grid.  The context is built
// without dependence graphs, fingerprints decide which procedures are
// dirty, and only those are re-analyzed (in parallel); without a store
// every procedure is.  Dirty graphs are frozen immediately — loop
// distribution rewrites references in place later, so this is the last
// moment the parse-stage selectors are computable.
func (r *scheduler) dependence() (bool, error) {
	cc := r.cc
	ctx, err := cp.NewContextNoDeps(cc.IR, cc.Bind)
	if err != nil {
		return false, err
	}
	grid, err := ctx.Grid()
	if err != nil {
		return false, err
	}
	if r.store != nil {
		r.fps = fingerprintUnits(ctx, cc.Opt, r.src, r.store)
	}

	// Look the artifacts up serially (the store is cheap), then thaw the
	// hits on the worker pool — relocation walks every statement of every
	// clean procedure, which is the bulk of a fully-warm compile.
	frozen := make([]*frozenDeps, len(cc.IR.Procs))
	thawed := make([][]*dep.Dependence, len(cc.IR.Procs))
	for i, proc := range cc.IR.Procs {
		if v, ok := r.get(artifactDeps, proc); ok {
			frozen[i] = v.(*frozenDeps)
		}
	}
	forEach(len(cc.IR.Procs), r.workers(), func(i int) error {
		if frozen[i] != nil {
			thawed[i], _ = thawDeps(cc.IR.Procs[i], frozen[i])
		}
		return nil
	})
	var dirtyIdx []int
	for i, proc := range cc.IR.Procs {
		if thawed[i] != nil {
			ctx.Deps[proc] = thawed[i]
			r.delta.ArtifactHits++
			continue
		}
		dirtyIdx = append(dirtyIdx, i)
		r.dirty[proc] = true
		r.delta.DirtyProcs = append(r.delta.DirtyProcs, proc.Name)
	}
	r.delta.Dirty = len(dirtyIdx)

	results := make([][]*dep.Dependence, len(dirtyIdx))
	forEach(len(dirtyIdx), r.workers(), func(k int) error {
		results[k] = dep.Analyze(cc.IR.Procs[dirtyIdx[k]].Body)
		return nil
	})
	for k, i := range dirtyIdx {
		proc := cc.IR.Procs[i]
		ctx.Deps[proc] = results[k]
		r.miss()
		// An unfreezable graph is simply not stored.
		_ = r.keep(artifactDeps, proc, func() (any, error) { return freezeDeps(proc, results[k]) })
	}
	cc.Ctx = ctx
	cc.Grid = grid
	return len(dirtyIdx) == 0, nil
}

// selClean is the skip predicate the partial selection phases take: a
// procedure is skipped when its frozen selection thawed successfully.
func (r *scheduler) selClean(p *ir.Procedure) bool { return !r.selDirty[p] }

// cpSelect runs the base CP selection.  Clean procedures install their
// frozen post-§6 selection state (CPs, entry CP, marked pairs, decision
// notes); the base selection search runs only for the dirty ones.  The
// propagation and interprocedural phases below are restricted the same
// way, so for a fully-clean program all four selection passes are
// no-ops over thawed state.
func (r *scheduler) cpSelect() (bool, error) {
	cc := r.cc
	order, err := cc.Ctx.Callees()
	if err != nil {
		return false, err
	}
	r.selOrder = order
	sel := cp.NewSelection()
	cc.Sel = sel
	r.selDirty = map[*ir.Procedure]bool{}
	for pi, proc := range order {
		if !r.dirty[proc] {
			if v, ok := r.get(artifactSel, proc); ok {
				if err := thawSel(proc, pi, sel, v.(*frozenSel)); err == nil {
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		r.selDirty[proc] = true
		r.miss()
	}
	if err := cp.SelectBaseInto(cc.Ctx, sel, cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// newProp propagates §4.1 through the dirty procedures only (thawed
// selections are already post-propagation).
func (r *scheduler) newProp() (bool, error) {
	if err := cp.PropagateNewArraysPartial(r.cc.Ctx, r.cc.Sel, r.cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// localize mirrors newProp for §4.2.
func (r *scheduler) localize() (bool, error) {
	if !r.cc.Opt.CP.Localize {
		return false, nil
	}
	if err := cp.PropagateLocalizePartial(r.cc.Ctx, r.cc.Sel, r.cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// interproc runs §6: dirty procedures normally, while clean ones
// republish their thawed entry CPs into ctx.EntryCPs at their bottom-up
// turn, so dirty callers translate against them.
func (r *scheduler) interproc() (bool, error) {
	if err := cp.SelectInterprocPartial(r.cc.Ctx, r.cc.Sel, r.cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// freezeSel keeps the finished selection state of the procedures
// selected this run.  It runs once, at the start of the first of
// loopdist/reductions — the last moment the pre-distribution statement
// walk (the relocation anchor shared with the deps artifact) is
// computable.
func (r *scheduler) freezeSel() {
	if r.selFrozen {
		return
	}
	r.selFrozen = true
	for pi, proc := range r.selOrder {
		if r.selDirty[proc] {
			_ = r.keep(artifactSel, proc, func() (any, error) { return freezeSel(proc, pi, r.cc.Sel), nil }) // cannot fail
		}
	}
}

// commPlan builds the communication plans: clean procedures thaw their
// finished (post-elimination) plans; dirty ones build events in
// parallel.
func (r *scheduler) commPlan() (bool, error) {
	cc := r.cc
	cc.Comm = map[string]*comm.Analysis{}
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] {
			if v, ok := r.get(artifactComm, proc); ok {
				if a, err := thawComm(proc, v.(*frozenComm)); err == nil {
					cc.Comm[proc.Name] = a
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
		r.commFresh[proc] = true
	}
	results := make([]*comm.Analysis, len(fresh))
	forEach(len(fresh), r.workers(), func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		results[k] = comm.BuildEvents(cc.Ctx, proc, cc.Sel)
		return nil
	})
	for k, i := range fresh {
		cc.Comm[cc.IR.Procs[i].Name] = results[k]
		r.miss()
	}
	return len(fresh) == 0, nil
}

// availability applies §7 elimination to freshly-built plans only: a
// thawed plan is already post-elimination and carries no dependence
// graphs to re-derive proofs from.
func (r *scheduler) availability() (bool, error) {
	cc := r.cc
	if !cc.Opt.Comm.Availability {
		return false, nil
	}
	n := 0
	for _, proc := range cc.IR.Procs {
		if r.commFresh[proc] {
			comm.ApplyAvailability(cc.Ctx, cc.Sel, cc.Comm[proc.Name])
			n++
		}
	}
	return n == 0, nil
}

// writebackRed mirrors availability for write-back redundancy.
func (r *scheduler) writebackRed() (bool, error) {
	cc := r.cc
	if !cc.Opt.Comm.RedundantWriteback {
		return false, nil
	}
	n := 0
	for _, proc := range cc.IR.Procs {
		if r.commFresh[proc] {
			comm.ApplyWritebackElim(cc.Ctx, cc.Sel, cc.Comm[proc.Name])
			n++
		}
	}
	return n == 0, nil
}

// lower finalizes the pipeline.  The executable/node-program forms are
// generated on demand by the spmd package from the analyses gathered
// here, so lowering's job at compile time is to validate that everything
// code generation will need is present and well-formed — its Check does
// the work.  It also keeps the now-final (post-elimination)
// communication plans of the procedures built this run.
func (r *scheduler) lower() (bool, error) {
	cc := r.cc
	if cc.Opt.PipelineGrain < 1 {
		return false, fmt.Errorf("PipelineGrain must be >= 1, got %d", cc.Opt.PipelineGrain)
	}
	for _, proc := range cc.IR.Procs {
		if r.commFresh[proc] {
			// An unfreezable plan is simply not stored.
			_ = r.keep(artifactComm, proc, func() (any, error) { return freezeComm(proc, cc.Comm[proc.Name]) })
		}
	}
	return false, nil
}

// verify executes the translation-validation pass: the verify package
// independently re-proves the four safety theorems (coverage,
// communication completeness, writeback soundness, pipeline legality)
// over the analyses the pipeline just produced, and the report is stored
// on the context.  The pass is optional (Options.Disable "verify") but on
// by default — a pipeline bug should fail the compile, not the run.
//
// Clean procedures thaw their report fragments (with statement IDs
// relocated onto the fresh bodies); dirty ones are verified in parallel;
// the merge in procedure order makes the report identical to verify.Run.
func (r *scheduler) verify() (bool, error) {
	cc := r.cc
	reductions := map[int]bool{}
	for _, plans := range cc.Reductions {
		for _, red := range plans {
			reductions[red.Stmt.ID] = true
		}
	}
	in := verify.Input{
		IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm,
		Reductions: reductions,
		Backend:    canonicalBackend(cc.Opt.Backend),
	}
	frags := make([]*verify.Report, len(cc.IR.Procs))
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] && !r.commFresh[proc] {
			if v, ok := r.get(artifactVerify, proc); ok {
				if frag, err := thawVerify(proc, v.(*frozenVerify)); err == nil {
					frags[i] = frag
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
	}
	err := forEach(len(fresh), r.workers(), func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		frag, err := verify.RunProc(in, proc)
		if err != nil {
			return err
		}
		frags[fresh[k]] = frag
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, i := range fresh {
		proc := cc.IR.Procs[i]
		r.miss()
		_ = r.keep(artifactVerify, proc, func() (any, error) { return freezeVerify(proc, frags[i]), nil }) // cannot fail
	}
	rep := &verify.Report{}
	for _, frag := range frags {
		verify.Merge(rep, frag)
	}
	cc.Verify = rep
	return len(fresh) == 0, nil
}

// analyze executes the static-analysis pass: symbolic loop summaries and
// distributed-array dataflow over the post-pipeline facts.  The result
// is stored on the context; Predict (the cost oracle) is run on demand
// by the surfaces, not here, because its output depends on nothing the
// pipeline caches.
//
// Clean procedures thaw their summary-plus-diagnostics fragments with
// statement IDs relocated onto the fresh bodies, dirty ones are analyzed
// in parallel, and the merge in procedure order is identical to
// analysis.Run.
func (r *scheduler) analyze() (bool, error) {
	cc := r.cc
	in := buildAnalysisInput(cc)
	frags := make([]*analysis.Result, len(cc.IR.Procs))
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] && !r.commFresh[proc] {
			if v, ok := r.get(artifactAnalyze, proc); ok {
				fz := v.(*frozenAnalyze)
				if frag, err := thawAnalyze(proc, fz); err == nil {
					frags[i] = frag
					// Seed the clean procedure's interface so dirty
					// callers resolve their calls from the cache.
					in.SeedInterface(proc.Name, fz.Iface)
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
	}
	err := forEach(len(fresh), r.workers(), func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		frag, err := analysis.RunProc(in, proc)
		if err != nil {
			return err
		}
		frags[fresh[k]] = frag
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, i := range fresh {
		proc := cc.IR.Procs[i]
		r.miss()
		if err := r.keep(artifactAnalyze, proc, func() (any, error) { return freezeAnalyze(in, proc, frags[i]) }); err != nil {
			return false, err
		}
	}
	res := &analysis.Result{}
	for _, frag := range frags {
		analysis.Merge(res, frag)
	}
	cc.Analysis = res
	return len(fresh) == 0, nil
}
