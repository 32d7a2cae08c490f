package ivm

import (
	"slices"
	"testing"

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
	var rows []row
	for _, name := range []string{"Q1", "Q3", "Q5", "Q10"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var lanes []lane
		for _, l := range []lane{localLane(), distLane(2)} {
			l.ref, l.oracle = skip, true
			unfolded := l
			unfolded.name += " without pre-aggregation"
			unfolded.opts = append(slices.Clone(l.opts), CompileOptions(noPreAgg))
			lanes = append(lanes, l, unfolded)
		}
		r := tpchRow(name, q, valueTermScript(q), lanes...)
		r.tol, r.every, r.views = diff, true, true
		r.check = func(t *testing.T, lanes map[string]*laneRun) {
			folded := false
			if v := lanes["local"].e.prog.View(name + "_lineitem_DELTA"); v != nil {
				expr.Walk(v.Def, func(n expr.Expr) bool {
					_, isVal := n.(*expr.Val)
					folded = folded || isVal
					return true
				})
			}
			if !folded {
				t.Fatal("the lineitem pre-aggregate folds no value term")
			}
		}
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

// valueTermScript is the first 16 transactions of q's ledgerScript, each
// also deleting every other lineitem the previous transaction inserted
// and inserting it again with a higher price and quantity, and deleting
// every fourth lineitem, from the second on, that the one before it
// inserted.
func valueTermScript(q tpch.Query) [][]tpch.Batch {
	var rounds [][]tpch.Batch
	var prev, older []Tuple // lineitems the last two transactions inserted
	for _, round := range ledgerScript(q)[:16] {
		var changes []mixedChange
		var inserted []Tuple
		for _, b := range round {
			b.Rel.Foreach(func(row Tuple, m float64) {
				changes = append(changes, mixedChange{b.Table, row, m})
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
				changes = append(changes, mixedChange{tpch.Lineitem, row, -1}, mixedChange{tpch.Lineitem, changed, 1})
			}
		}
		for j, row := range older {
			if j%4 == 1 {
				changes = append(changes, mixedChange{tpch.Lineitem, row, -1})
			}
		}
		older, prev = prev, inserted
		rounds = append(rounds, changeRound(q.BaseSchemas(), changes))
	}
	return rounds
}
