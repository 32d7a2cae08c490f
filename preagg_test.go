package ivm

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// lineitem columns the value-term tests rewrite.
const (
	liQuantity = 3
	liPrice    = 4
)

// TestValueTermFoldMatchesOracle holds the programs whose lineitem
// pre-aggregate multiplies in the value term its readers share (Q1, Q3,
// Q5, Q10) to the oracle, and to the same query compiled without
// pre-aggregation, on local and Distributed(2). The stream deletes rows,
// and it changes rows in place: a transaction deletes half of the
// previous transaction's lineitems and inserts each again with a higher
// price and quantity. Those two changes fall in one pre-aggregate group
// with multiplicities that cancel, while the value term they carry does
// not. After every transaction each result must equal the oracle's; at
// the end so must every persistent view.
func TestValueTermFoldMatchesOracle(t *testing.T) {
	noPreAgg := compile.DefaultOptions()
	noPreAgg.PreAggregate = false
	for _, name := range []string{"Q1", "Q3", "Q5", "Q10"} {
		t.Run(name, func(t *testing.T) {
			q, err := tpch.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			bases := q.BaseSchemas()
			engines := map[string]*Engine{}
			for label, opts := range map[string][]Option{
				"local":                                  nil,
				"local without pre-aggregation":          {CompileOptions(noPreAgg)},
				"Distributed(2)":                         {Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)},
				"Distributed(2) without pre-aggregation": {Distributed(2), KeyRanks(tpch.PrimaryKeyRanks), CompileOptions(noPreAgg)},
			} {
				e, err := New(q.Name, q.Def, bases, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				engines[label] = e
			}
			folded := false
			if v := engines["local"].prog.View(name + "_lineitem_DELTA"); v != nil {
				expr.Walk(v.Def, func(n expr.Expr) bool {
					_, isVal := n.(*expr.Val)
					folded = folded || isVal
					return true
				})
			}
			if !folded {
				t.Fatal("the lineitem pre-aggregate folds no value term")
			}
			accum := baseline.Changes{}
			for _, tbl := range q.Tables {
				accum[tbl] = nil
			}
			var prev, older []Tuple // lineitems the last two transactions inserted
			for i, round := range ledgerScript(q)[:16] {
				type rowChange struct {
					table string
					row   Tuple
					m     float64
				}
				var changes []rowChange
				change := func(table string, row Tuple, m float64) {
					changes = append(changes, rowChange{table, row, m})
					accum.Row(table, row, m)
				}
				var inserted []Tuple
				for _, b := range round {
					b.Rel.Foreach(func(row Tuple, m float64) {
						change(b.Table, row, m)
						if b.Table == tpch.Lineitem {
							inserted = append(inserted, row.Clone())
						}
					})
				}
				for j, row := range prev {
					if j%2 == 0 {
						changed := row.Clone()
						changed[liPrice] = mring.Float(row[liPrice].AsFloat() * 1.5)
						changed[liQuantity] = mring.Float(row[liQuantity].AsFloat() + 1)
						change(tpch.Lineitem, row, -1)
						change(tpch.Lineitem, changed, 1)
					}
				}
				for j, row := range older {
					if j%4 == 1 {
						change(tpch.Lineitem, row, -1)
					}
				}
				older, prev = prev, inserted
				want := baseline.Eval(q.Def, baseline.Of(accum))
				for label, e := range engines {
					tx := e.NewTx()
					for _, c := range changes {
						if err := tx.Change(c.table, c.row, c.m); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Apply(tx); err != nil {
						t.Fatal(err)
					}
					if d := baseline.Diff(e.Result().rel, want); d != "" {
						t.Fatalf("%s after transaction %d: %s", label, i, d)
					}
				}
			}
			db := baseline.Of(accum)
			nonEmpty := 0
			for label, e := range engines {
				for _, v := range e.prog.Views {
					if v.Transient || expr.HasDelta(v.Def) {
						continue
					}
					got := e.be.ViewContents(v.Name)
					if d := baseline.Diff(got, baseline.Eval(v.Def, db)); d != "" {
						t.Fatalf("%s view %s diverges from the oracle: %s", label, v.Name, d)
					}
					if got.Len() > 0 {
						nonEmpty++
					}
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every view is empty: the stream tests nothing")
			}
		})
	}
}
