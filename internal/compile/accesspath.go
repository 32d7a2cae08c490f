package compile

import (
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Access-path analysis. Evaluation reaches every relational term with a
// statically known set of bound columns, so lowering a statement
// (eval.Prepare) fixes each term's access path — foreach, get, or slice
// (Sec. 5.1). The compiler prepares the trees an executor of the program
// runs once, keeps the plans with the program, and reads the slice paths
// off them: the indexes it declares are exactly the ones evaluation
// probes, and executors register them up front instead of paying a full
// build on the first probe after deployment.

// IndexSpec names one secondary index a compiled program probes: the
// environment name of the relation (view name, base-table name, or Δ-delta
// name) and the ascending bound-column positions within its reference.
type IndexSpec struct {
	Rel string
	Pos []int
}

// warmStart reports whether InitFromBases evaluates view v's definition:
// persistent views over base relations only.
func warmStart(v *ViewDef) bool { return !v.Transient && !expr.HasDelta(v.Def) }

// executedTrees returns the trees an executor of p evaluates: every
// trigger statement, in trigger-name order, then every view definition a
// warm start evaluates.
func executedTrees(p *Program) []expr.Expr {
	names := make([]string, 0, len(p.Triggers))
	for n := range p.Triggers {
		names = append(names, n)
	}
	sort.Strings(names)
	var es []expr.Expr
	for _, n := range names {
		for _, s := range p.Triggers[n].Stmts {
			es = append(es, s.RHS)
		}
	}
	for _, v := range p.Views {
		if warmStart(v) {
			es = append(es, v.Def)
		}
	}
	return es
}

// preparePlans lowers the program's executed trees and derives from them
// the secondary indexes the program reports.
func preparePlans(p *Program) error {
	plans, err := eval.Prepare(executedTrees(p)...)
	if err != nil {
		return fmt.Errorf("compile: program %s: %w", p.QueryName, err)
	}
	p.plans = plans
	p.Indexes = collectIndexSpecs(p)
	return nil
}

// collectIndexSpecs returns the deduplicated slice access paths of the
// program's plans in a deterministic order.
func collectIndexSpecs(p *Program) []IndexSpec {
	seen := make(map[string]map[uint64][]int)
	for _, e := range executedTrees(p) {
		for _, a := range p.plans[e].Accesses() {
			if !a.Slice() {
				continue
			}
			mask := mring.ColMask(a.Bound)
			if seen[a.Env] == nil {
				seen[a.Env] = make(map[uint64][]int)
			}
			if _, ok := seen[a.Env][mask]; !ok {
				seen[a.Env][mask] = a.Bound
			}
		}
	}
	var specs []IndexSpec
	rels := make([]string, 0, len(seen))
	for r := range seen {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		masks := make([]uint64, 0, len(seen[r]))
		for m := range seen[r] {
			masks = append(masks, m)
		}
		sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
		for _, m := range masks {
			specs = append(specs, IndexSpec{Rel: r, Pos: seen[r][m]})
		}
	}
	return specs
}
