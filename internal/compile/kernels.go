package compile

import "sort"

// KernelStmt records one trigger statement whose RHS the evaluator's
// vectorized columnar path covers: a single-scan aggregate over static
// comparisons and value terms (see internal/eval's kernel analysis —
// the detection here reads the same plans an executor of the program
// runs, so the plan below is exactly what executes). Pre-aggregation
// statements (Sec. 3.3) are the prime targets: they scan the delta batch
// and fold it through shared static conditions.
type KernelStmt struct {
	// Trigger is the updated base relation whose trigger holds the
	// statement ("" for a view initialization scan).
	Trigger string
	// LHS is the maintained view.
	LHS string
	// Scans is the environment name of the relation the kernel scans.
	Scans string
}

// collectKernelStmts reports the covered statements of the program's
// plans, as collectIndexSpecs reports their slice paths. The result is
// advisory (the runtime re-dispatches per fold, falling back to rows on
// mixed-kind or tiny relations), deterministic, and sorted.
func collectKernelStmts(p *Program) []KernelStmt {
	var out []KernelStmt
	for _, trg := range p.Triggers {
		for _, s := range trg.Stmts {
			if scans, ok := p.plans[s.RHS].Kernel(); ok {
				out = append(out, KernelStmt{Trigger: trg.Relation, LHS: s.LHS, Scans: scans})
			}
		}
	}
	for _, v := range p.Views {
		if !warmStart(v) {
			continue
		}
		if scans, ok := p.plans[v.Def].Kernel(); ok {
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
