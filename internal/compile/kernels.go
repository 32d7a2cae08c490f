package compile

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/expr"
)

// KernelStmt records one trigger statement whose RHS the evaluator's
// vectorized columnar path covers: a single-scan aggregate over static
// comparisons and value terms (see internal/eval's kernel analysis —
// the detection here lowers the same plan table an executor of the
// program dispatches through, so the plan below is exactly what
// executes). Pre-aggregation statements (Sec. 3.3) are the prime
// targets: they scan the delta batch and fold it through shared static
// conditions.
type KernelStmt struct {
	// Trigger is the updated base relation whose trigger holds the
	// statement ("" for a view initialization scan).
	Trigger string
	// LHS is the maintained view.
	LHS string
	// Scans is the environment name of the relation the kernel scans.
	Scans string
}

// kernelTable lowers every covered aggregate of the program's trigger
// statements and view definitions: the plan table an executor of the
// program owns for its lifetime.
func kernelTable(p *Program) eval.Kernels {
	var es []expr.Expr
	for _, trg := range p.Triggers {
		for _, s := range trg.Stmts {
			es = append(es, s.RHS)
		}
	}
	for _, v := range p.Views {
		es = append(es, v.Def)
	}
	return eval.LowerKernels(es...)
}

// collectKernelStmts reports the covered statements of the program's
// plan table, mirroring how collectIndexSpecs sits next to the
// access-path analysis. The result is advisory (the runtime re-dispatches
// per fold, falling back to rows on mixed-kind or tiny relations),
// deterministic, and sorted.
func collectKernelStmts(p *Program) []KernelStmt {
	k := kernelTable(p)
	var out []KernelStmt
	for _, trg := range p.Triggers {
		for _, s := range trg.Stmts {
			if scans, ok := k.Scans(s.RHS); ok {
				out = append(out, KernelStmt{Trigger: trg.Relation, LHS: s.LHS, Scans: scans})
			}
		}
	}
	for _, v := range p.Views {
		if v.Transient {
			continue
		}
		if scans, ok := k.Scans(v.Def); ok {
			out = append(out, KernelStmt{LHS: v.Name, Scans: scans})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Trigger != b.Trigger {
			return a.Trigger < b.Trigger
		}
		if a.LHS != b.LHS {
			return a.LHS < b.LHS
		}
		return a.Scans < b.Scans
	})
	return out
}
