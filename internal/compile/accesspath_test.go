package compile

import (
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// TestIndexesAreThePlansSlices pins the single access-path analysis: for
// every TPC-H and TPC-DS program, the indexes the program declares are
// exactly the slice paths of its trigger statements and warm-start view
// definitions as eval.Prepare lowers them, both ways. An executor run over
// a stream prefix then builds no index lazily: every slice it evaluates
// probes an index registered up front.
func TestIndexesAreThePlansSlices(t *testing.T) {
	type query struct {
		name    string
		def     expr.Expr
		schemas map[string]mring.Schema
		tables  []string
	}
	var qs []query
	for _, q := range tpch.Queries() {
		qs = append(qs, query{q.Name, q.Def, q.BaseSchemas(), q.Tables})
	}
	for _, q := range tpcds.Queries() {
		qs = append(qs, query{q.Name, q.Def, q.BaseSchemas(), nil})
	}
	for _, q := range qs {
		prog, err := Compile(q.name, q.def, q.schemas, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		for _, s := range prog.Indexes {
			declared[fmt.Sprint(s.Rel, s.Pos)] = true
		}
		var trees []expr.Expr
		for _, trg := range prog.Triggers {
			for _, s := range trg.Stmts {
				trees = append(trees, s.RHS)
			}
		}
		for _, v := range prog.Views {
			if !v.Transient && !expr.HasDelta(v.Def) {
				trees = append(trees, v.Def)
			}
		}
		plans, err := eval.Prepare(trees...)
		if err != nil {
			t.Fatal(err)
		}
		sliced := map[string]bool{}
		for _, e := range trees {
			for _, a := range plans[e].Accesses() {
				if a.Slice() {
					sliced[fmt.Sprint(a.Env, a.Bound)] = true
				}
			}
		}
		for k := range declared {
			if !sliced[k] {
				t.Errorf("%s declares index %s, which no plan slices", q.name, k)
			}
		}
		for k := range sliced {
			if !declared[k] {
				t.Errorf("%s slices %s, which it does not declare", q.name, k)
			}
		}
		if q.tables == nil {
			continue
		}
		ex := NewExecutor(prog)
		stream := tpch.NewStream(tpch.NewGenerator(0.05, 2), q.tables)
		for i := 0; i < 4; i++ {
			for _, b := range stream.NextBatches(200) {
				ex.ApplyBatch(b.Table, b.Rel)
			}
		}
		if ex.Stats.IndexOps != 0 {
			t.Errorf("%s built %d indexes lazily", q.name, ex.Stats.IndexOps)
		}
	}
}
