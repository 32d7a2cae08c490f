package ivm

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// cancelColumn is, per table the driver pre-aggregates for Q3, Q5 or
// Q10, a column no pre-aggregate of those queries groups on: two rows
// differing only there fall in one group.
var cancelColumn = map[string]int{tpch.Lineitem: 1, tpch.Orders: 5, tpch.Customer: 3, tpch.Supplier: 2}

// preAggScript is a transaction script over q's stream whose batches
// carry multiplicities 1, 2, -3 and 0.5, delete rows an earlier
// transaction inserted, and hold two rows of one pre-aggregate group
// that cancel: a row and its copy, changed in cancelColumn only, at +1
// and -1. Static dimensions come first, as one transaction.
func preAggScript(q tpch.Query, txs int) [][]tpch.Batch {
	gen := tpch.NewGenerator(0.1, 11)
	var script [][]tpch.Batch
	var static []tpch.Batch
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			static = append(static, tpch.Batch{Table: tbl, Rel: gen.Static(tbl)})
		}
	}
	if len(static) > 0 {
		script = append(script, static)
	}
	stream := tpch.NewStream(gen, q.Tables)
	inserted := map[string][]mring.Tuple{}
	mults := []float64{1, 2, -3, 0.5}
	for i := 0; i < txs; i++ {
		var round []tpch.Batch
		for _, b := range stream.NextBatches(25) {
			rel := mring.NewRelation(b.Rel.Schema())
			j := 0
			b.Rel.Foreach(func(tp mring.Tuple, _ float64) {
				rel.Add(tp, mults[j%len(mults)])
				inserted[b.Table] = append(inserted[b.Table], tp)
				j++
			})
			if old := inserted[b.Table]; len(old) > 2*j {
				rel.Add(old[0], -1)
				inserted[b.Table] = old[1:]
			}
			if col, ok := cancelColumn[b.Table]; ok && j > 0 {
				var row mring.Tuple
				b.Rel.Foreach(func(tp mring.Tuple, _ float64) {
					if row == nil {
						row = slices.Clone(tp)
					}
				})
				twin := slices.Clone(row)
				if row[col].Kind() == mring.KFloat {
					row[col], twin[col] = mring.Float(row[col].AsFloat()+0.25), mring.Float(row[col].AsFloat()+0.5)
				} else {
					row[col], twin[col] = mring.Int(row[col].AsInt()+1000003), mring.Int(row[col].AsInt()+2000003)
				}
				rel.Add(row, 1)
				rel.Add(twin, -1)
			}
			round = append(round, tpch.Batch{Table: b.Table, Rel: rel})
		}
		if len(round) > 0 {
			script = append(script, round)
		}
	}
	return script
}

// TestDriverPreAggregateBitwise holds the engines whose placement reads
// keyed batches at the driver and deals their pre-aggregates
// (dist.Place) bitwise equal to the local engine, in every persistent
// view and so in the result, after every transaction of preAggScript, for
// Q3, Q5 and Q10, on Distributed(2), Remote(2) over loopback workers, and
// a Durable Distributed(2) engine reopened halfway from a checkpoint and
// its log. The rows compare views because Q5's result stays empty on this
// stream; its 35 other views do not. It also pins the placement: every Q3
// batch is read at the driver, and Q1's and Q6's lineitem batches, whose
// pre-aggregates drop the deal key, are still dealt on it.
func TestDriverPreAggregateBitwise(t *testing.T) {
	for name, want := range map[string]map[string]dist.Loc{
		"Q1": {tpch.Lineitem: dist.Dist("l_orderkey")},
		"Q3": {tpch.Customer: dist.Local, tpch.Orders: dist.Local, tpch.Lineitem: dist.Local},
		"Q6": {tpch.Lineitem: dist.Dist("l_orderkey")},
	} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
		if err != nil {
			t.Fatal(err)
		}
		for table, loc := range want {
			if got := e.be.(*distBackend).parts[eval.DeltaName(table)]; !got.Equal(loc) {
				t.Errorf("%s: %s batches placed %v, want %v", name, table, got, loc)
			}
		}
		e.Close()
	}
	var rows []row
	for _, name := range []string{"Q3", "Q5", "Q10"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		script := preAggScript(q, 16)
		r := tpchRow(name, q, script, localLane(), distLane(2), remoteLane(2),
			durableLane(distLane(2), len(script)/4, len(script)/2))
		r.views, r.every = true, true
		rows = append(rows, r)
	}
	runRows(t, rows...)
}
