package passes

import (
	"fmt"
)

// checkVerify is the pass invariant: a program that fails its own safety
// proof must not compile.  The first error diagnostics are inlined so the
// failure localizes the broken pass without re-running anything.
func checkVerify(cc *CompileContext) error {
	if cc.Verify == nil {
		return fmt.Errorf("no verification report produced")
	}
	errs := cc.Verify.Errors()
	if len(errs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("program fails %d safety obligations", len(errs))
	for i, d := range errs {
		if i == 3 {
			msg += fmt.Sprintf("; … %d more", len(errs)-i)
			break
		}
		msg += "; " + d.String()
	}
	return fmt.Errorf("%s", msg)
}
