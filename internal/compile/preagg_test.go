package compile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
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

// TestValueTermFoldsIntoPreAggregate pins the value-term rule of
// pre-aggregation on the TPC-H queries it applies to, read off the
// printed program: the lineitem pre-aggregate multiplies the term in and
// groups by the remaining columns only, and no other statement of the
// trigger evaluates the term. Q6 keeps its term in the reader: folded,
// its pre-aggregate would keep no group column.
func TestValueTermFoldsIntoPreAggregate(t *testing.T) {
	const revenue = "[(l_extendedprice * (1 - l_discount))]"
	for _, c := range []struct {
		query, term, group string
		folds              bool
	}{
		{"Q1", "[l_quantity]", "l_returnflag,l_linestatus", true},
		{"Q3", revenue, "o_orderkey", true},
		{"Q5", revenue, "o_orderkey,l_suppkey", true},
		{"Q10", revenue, "o_orderkey", true},
		{"Q6", "[(l_extendedprice * l_discount)]", "l_extendedprice,l_discount", false},
	} {
		t.Run(c.query, func(t *testing.T) {
			q, err := tpch.QueryByName(c.query)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(c.query, q.Def, q.BaseSchemas(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			name := c.query + "_lineitem_DELTA"
			trg := prog.Triggers[tpch.Lineitem]
			if trg == nil || prog.View(name) == nil || trg.Stmts[0].LHS != name {
				t.Fatalf("no %s heading the lineitem trigger:\n%s", name, prog)
			}
			head := fmt.Sprintf("VIEW %s(%s) (transient) := Sum_[%s](", name, c.group, c.group)
			if !strings.Contains(prog.String(), head) {
				t.Errorf("want %q in the program:\n%s", head, prog)
			}
			if strings.Contains(trg.Stmts[0].String(), c.term) != c.folds {
				t.Errorf("the pre-aggregate multiplies by %s: %v, want %v\n%s", c.term, !c.folds, c.folds, trg)
			}
			for _, s := range trg.Stmts[1:] {
				if strings.Contains(s.String(), c.term) == c.folds {
					t.Errorf("a reader evaluates %s: %v, want %v: %s", c.term, c.folds, !c.folds, s)
				}
			}
		})
	}
}

// TestValueTermRuleRefuses holds sharedValueTerm to its conditions on
// hand-built readers of ΔR(a,b): it finds the term when every product
// holding the delta multiplies by it once, through Plus, Agg and Mul,
// and refuses every other shape, also beside a reader it would fold.
func TestValueTermRuleRefuses(t *testing.T) {
	alias := mring.Schema{"a", "b"}
	delta := func() expr.Expr { return expr.Delta("R", "a", "b") }
	term := func() expr.Expr { return expr.ValE(expr.MulV(expr.V("a"), expr.LitF(2))) }
	view := func() expr.Expr { return expr.View("M", "b", "c") }
	reader := func(factors ...expr.Expr) Stmt {
		return Stmt{LHS: "V", Op: eval.OpAdd, RHS: expr.Sum([]string{"c"}, expr.Join(factors...))}
	}
	for _, c := range []struct {
		name  string
		stmts []Stmt
		fold  bool
	}{
		{"every reader", []Stmt{reader(delta(), term(), view()), reader(view(), term(), delta())}, true},
		{"through a union and a nested sum", []Stmt{{LHS: "V", Op: eval.OpAdd, RHS: expr.Add(
			expr.Sum([]string{"c"}, expr.Join(view(), expr.Sum([]string{"b"}, expr.Join(delta(), term())))),
			expr.Sum([]string{"c"}, view()))}}, true},
		{"under Exists", []Stmt{reader(delta(), term(), view()),
			reader(view(), expr.ExistsE(expr.Sum([]string{"b"}, expr.Join(delta(), term()))))}, false},
		{"under a lift", []Stmt{reader(delta(), term(), view()),
			reader(view(), expr.LiftQ("n", expr.Sum(nil, expr.Join(delta(), term()))))}, false},
		{"a reader without the term", []Stmt{reader(delta(), term(), view()), reader(delta(), view())}, false},
		{"the term twice in one product", []Stmt{reader(delta(), term(), term(), view())}, false},
		{"two terms in one product", []Stmt{reader(delta(), term(), expr.ValE(expr.V("b")), view())}, false},
		{"the delta twice in one product", []Stmt{reader(delta(), delta(), term(), view())}, false},
		{"the delta outside a product", []Stmt{reader(delta(), term(), view()), {LHS: "W", Op: eval.OpAdd, RHS: expr.Sum([]string{"b"}, delta())}}, false},
		{"a term over other columns", []Stmt{reader(delta(), view(), expr.ValE(expr.MulV(expr.V("a"), expr.V("c"))))}, false},
		{"different terms", []Stmt{reader(delta(), term(), view()), reader(delta(), expr.ValE(expr.V("a")), view())}, false},
	} {
		got := sharedValueTerm(c.stmts, "R", alias)
		if c.fold && (got == nil || got.String() != term().String()) {
			t.Errorf("%s: got %v, want %s", c.name, got, term())
		}
		if !c.fold && got != nil {
			t.Errorf("%s: folds %s, want no term", c.name, got)
		}
	}
}
