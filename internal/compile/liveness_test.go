package compile_test

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// livenessTrees returns, per program, the trees a deployment of it runs:
// the trigger statements and warm-start view definitions of every TPC-H
// and TPC-DS program compiled with the default options, and the compute
// statements of the TPC-H programs' O3 distributed blocks.
func livenessTrees(t *testing.T) map[string][]expr.Expr {
	t.Helper()
	out := map[string][]expr.Expr{}
	add := func(name string, prog *compile.Program) {
		for _, trg := range prog.Triggers {
			for _, s := range trg.Stmts {
				out[name] = append(out[name], s.RHS)
			}
		}
		for _, v := range prog.Views {
			if !v.Transient && !expr.HasDelta(v.Def) {
				out[name] = append(out[name], v.Def)
			}
		}
	}
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		add(q.Name, prog)
		parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
		for _, dp := range dist.CompileProgram(prog, parts, dist.O3) {
			for _, b := range dp.Blocks {
				for _, s := range b.Stmts {
					if !s.IsXform() {
						out[q.Name+"/O3"] = append(out[q.Name+"/O3"], s.RHS)
					}
				}
			}
		}
	}
	for _, q := range tpcds.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		add(q.Name, prog)
	}
	return out
}

// treeReads returns the variables a tree reads, computed from the tree
// alone: value terms' variables, group-by columns, the columns of every
// materialized subtree (the root, a grouped lift's query, a grouped
// Exists' body), the bound columns each access path probes with, and
// every lifted variable (a lift reads its variable when it is already
// bound; counting every one only makes the census more lenient).
func treeReads(e expr.Expr, accesses []eval.Access) map[string]bool {
	reads := map[string]bool{}
	add := func(vars []string) {
		for _, v := range vars {
			reads[v] = true
		}
	}
	add(e.Schema())
	for _, a := range accesses {
		for _, p := range a.Bound {
			reads[a.Rel.Cols[p]] = true
		}
	}
	expr.Walk(e, func(x expr.Expr) bool {
		switch x := x.(type) {
		case *expr.Val:
			add(x.E.Vars(nil))
		case *expr.Cmp:
			add(x.R.Vars(x.L.Vars(nil)))
		case *expr.Agg:
			add(x.GroupBy)
		case *expr.Assign:
			reads[x.Var] = true
			if x.ValE != nil {
				add(x.ValE.Vars(nil))
			}
			if x.Q != nil {
				add(x.Q.Schema())
			}
		case *expr.Exists:
			add(x.Body.Schema())
		}
		return true
	})
	return reads
}

// TestPlansWriteOnlyWhatTheyRead is the liveness census: no relational
// term of any plan writes a frame slot that no part of its tree reads,
// and the scans of the Q1 and Q3 update batches write only the columns
// the queries use. Binding every free column wrote 12 of Δlineitem's 12
// columns, 6 of Δorders' 6 and 5 of Δcustomer's 5.
func TestPlansWriteOnlyWhatTheyRead(t *testing.T) {
	want := map[string]string{
		"Q1 Δlineitem": "4 of 12",
		"Q3 Δlineitem": "4 of 12",
		"Q3 Δorders":   "4 of 6",
		"Q3 Δcustomer": "2 of 5",
	}
	seen := map[string]int{}
	for name, trees := range livenessTrees(t) {
		plans, err := eval.Prepare(trees...)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range trees {
			acc := plans[e].Accesses()
			reads := treeReads(e, acc)
			for _, a := range acc {
				for _, p := range a.Writes {
					if c := a.Rel.Cols[p]; !reads[c] {
						t.Errorf("%s: %s writes %s, which its tree never reads:\n%v", name, a.Env, c, e)
					}
				}
				if k := name + " " + a.Env; want[k] != "" && len(a.Bound) == 0 {
					seen[k]++
					if got := fmt.Sprintf("%d of %d", len(a.Writes), len(a.Rel.Cols)); got != want[k] {
						t.Errorf("%s scan writes %s columns, want %s:\n%v", k, got, want[k], e)
					}
				}
			}
		}
	}
	for k := range want {
		if seen[k] == 0 {
			t.Errorf("no %s scan found", k)
		}
	}
}
