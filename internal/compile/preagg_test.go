package compile

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/tpch"
)

// scanAgg reports the relation a single-scan aggregate reads: e is an
// aggregate whose body names exactly one relation.
func scanAgg(e expr.Expr) (*expr.Rel, bool) {
	if _, ok := e.(*expr.Agg); !ok {
		return nil, false
	}
	var rels []*expr.Rel
	expr.Walk(e, func(x expr.Expr) bool {
		if r, ok := x.(*expr.Rel); ok {
			rels = append(rels, r)
		}
		return true
	})
	if len(rels) != 1 {
		return nil, false
	}
	return rels[0], true
}

// TestKernelStmtsCoverTPCHPreAggregates pins the pre-aggregation (Sec.
// 3.3) of the scan-heavy TPC-H queries: the lineitem trigger of Q1 and Q6
// holds a single-scan aggregate, and a warm start rebuilds a view by one
// scan of a base relation. These are the statements a columnar kernel
// once covered; they fold through their prepared row plans now. The test
// keeps the kernel-era name.
func TestKernelStmtsCoverTPCHPreAggregates(t *testing.T) {
	for _, name := range []string{"Q1", "Q6"} {
		t.Run(name, func(t *testing.T) {
			q, err := tpch.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(name, q.Def, q.BaseSchemas(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			trg := prog.Triggers[tpch.Lineitem]
			if trg == nil {
				t.Fatalf("no lineitem trigger:\n%s", prog)
			}
			var delta bool
			for _, s := range trg.Stmts {
				if _, ok := scanAgg(s.RHS); ok {
					delta = true
				}
			}
			if !delta {
				t.Errorf("lineitem trigger has no single-scan aggregate:\n%s", prog)
			}
			var warm bool
			for _, v := range prog.Views {
				if r, ok := scanAgg(v.Def); ok && warmStart(v) && r.Kind == expr.RBase {
					warm = true
				}
			}
			if !warm {
				t.Errorf("no warm-start view is a single base-relation scan:\n%s", prog)
			}
		})
	}
}
