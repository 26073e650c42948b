package passes

import (
	"fmt"

	"dhpf/internal/analysis"
)

// buildAnalysisInput assembles the static-analysis input from the
// compile context — the same facts the verifier reads, plus the grain
// and backend the cost oracle prices.
func buildAnalysisInput(cc *CompileContext) *analysis.Input {
	reds := map[string][]analysis.Reduction{}
	for name, plans := range cc.Reductions {
		for _, r := range plans {
			reds[name] = append(reds[name], analysis.Reduction{Loop: r.Loop, Stmt: r.Stmt, Var: r.Var, Op: r.Op})
		}
	}
	return &analysis.Input{
		IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm,
		Reductions:    reds,
		Grid:          cc.Grid,
		Backend:       canonicalBackend(cc.Opt.Backend),
		PipelineGrain: cc.Opt.PipelineGrain,
	}
}

// checkAnalyze is deliberately lenient, unlike checkVerify: dataflow
// ERROR diagnostics describe properties of the *program* (reading unset
// distributed storage), not of the compiler, so they must not fail the
// compile — the program still executes deterministically.  The corpus
// cleanliness gate lives in `dhpfc -analyze` (nonzero exit on ERROR),
// which CI runs over testdata.
func checkAnalyze(cc *CompileContext) error {
	if cc.Analysis == nil {
		return fmt.Errorf("no analysis result produced")
	}
	if len(cc.Analysis.Procs) != len(cc.IR.Procs) {
		return fmt.Errorf("analysis covers %d of %d procedures", len(cc.Analysis.Procs), len(cc.IR.Procs))
	}
	return nil
}
