package ivm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/tpch"
)

// TestNonFiniteMultiplicityRejected pins that no change can leave a
// non-finite multiplicity in a transaction: a NaN or infinite delta, or
// one that overflows the tuple's accumulated multiplicity, through
// Tx.Change, Batch.Change or Tx.Put's merge, returns an error and leaves
// the batch as it was. Each case ends with the transaction's net change
// zero, so applying it must leave Result bitwise unchanged.
func TestNonFiniteMultiplicityRejected(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	const table = tpch.Lineitem
	stream := tpch.NewStream(tpch.NewGenerator(0.01, 2), q.Tables)
	warm := stream.NextBatches(50)
	var row Tuple
	warm[0].Rel.Foreach(func(tp Tuple, _ float64) {
		if row == nil {
			row = tp.Clone()
		}
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	batch := func(delta float64) *Batch {
		t.Helper()
		b := NewBatch(tpch.Schemas[table])
		must(b.Change(row, delta))
		return b
	}
	cases := []struct {
		name string
		// bad runs the rejected change, surrounded by accepted ones that
		// cancel, and returns the rejected change's error.
		bad func(tx *Tx) error
	}{
		{"NaN", func(tx *Tx) error { return tx.Change(table, row, math.NaN()) }},
		{"+Inf", func(tx *Tx) error { return tx.Change(table, row, math.Inf(1)) }},
		{"-Inf", func(tx *Tx) error { return tx.Change(table, row, math.Inf(-1)) }},
		{"Batch.Change NaN", func(tx *Tx) error {
			b := NewBatch(tpch.Schemas[table])
			err := b.Change(row, math.NaN())
			must(tx.Put(table, b))
			return err
		}},
		{"overflow", func(tx *Tx) error {
			must(tx.Change(table, row, 1e308))
			err := tx.Change(table, row, 1e308)
			must(tx.Change(table, row, -1e308))
			return err
		}},
		{"negative overflow", func(tx *Tx) error {
			must(tx.Change(table, row, -math.MaxFloat64))
			must(tx.Delete(table, row)) // absorbed: no overflow
			err := tx.Change(table, row, -1e300)
			must(tx.Change(table, row, math.MaxFloat64))
			return err
		}},
		{"Put merge overflow", func(tx *Tx) error {
			must(tx.Put(table, batch(1e308)))
			err := tx.Put(table, batch(1e308))
			must(tx.Change(table, row, -1e308))
			return err
		}},
	}
	for _, backend := range []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"Distributed(2)", []Option{Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)}},
	} {
		e, err := New(q.Name, q.Def, q.BaseSchemas(), backend.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tx := e.NewTx()
		for _, b := range warm {
			must(tx.Put(b.Table, &Batch{rel: b.Rel}))
		}
		must(e.Apply(tx))
		want := e.Result().String()
		for _, c := range cases {
			tx := e.NewTx()
			if err := c.bad(tx); err == nil {
				t.Errorf("%s %s: change accepted", backend.name, c.name)
			}
			if tx.Len() != 0 {
				t.Errorf("%s %s: transaction holds %d changes after cancelling", backend.name, c.name, tx.Len())
			}
			must(e.Apply(tx))
			if got := e.Result().String(); got != want {
				t.Errorf("%s %s: Result changed:\n got %s\nwant %s", backend.name, c.name, got, want)
			}
		}
	}
}

// TestNonFiniteValueCancelsToNaN pins what a non-finite value does when
// the rows carrying it cancel by multiplicity inside one pre-aggregate
// group. Two Q1 lineitems with l_quantity +Inf, in one (l_returnflag,
// l_linestatus) group, change by +1 and -1 in one batch. Q1's
// pre-aggregate multiplies l_quantity in, so the group sums
// Inf·1 + Inf·(-1), which is NaN, as the oracle's sum over the rows
// and the program without pre-aggregation also compute. Every backend
// holds NaN in that group, and the other groups as the oracle has them;
// a durable engine checkpointed empty and recovered by replaying the
// transaction holds the local engine's result bitwise, NaN included.
func TestNonFiniteValueCancelsToNaN(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	const table = tpch.Lineitem
	warm := tpch.NewStream(tpch.NewGenerator(0.01, 2), q.Tables).NextBatches(50)
	var rows [2]Tuple
	warm[0].Rel.Foreach(func(tp Tuple, _ float64) {
		if rows[0] == nil {
			rows[0], rows[1] = tp.Clone(), tp.Clone()
		}
	})
	for i := range rows {
		rows[i][0] = Int(1<<40 + int64(i)) // two orders no warm row names
		rows[i][3] = Float(math.Inf(1))    // l_quantity
		rows[i][6] = Int(19940101)         // l_shipdate, inside Q1's filter
	}
	group := Tuple{rows[0][9], rows[0][10]}
	round := append(slices.Clone(warm), changeRound(q.BaseSchemas(), []mixedChange{{table, rows[0], 1}, {table, rows[1], -1}})...)
	noPreAgg := compile.DefaultOptions()
	noPreAgg.PreAggregate = false
	oracleOnly := func(l lane) lane { l.ref, l.oracle = skip, true; return l }
	r := tpchRow("", q, [][]tpch.Batch{round}, oracleLane(localLane()),
		oracleOnly(lane{name: "local without pre-aggregation", opts: []Option{CompileOptions(noPreAgg)}}),
		oracleOnly(distLane(2)), oracleOnly(remoteLane(2)), oracleLane(durableLane(localLane(), 0, 1)))
	r.tol = diff
	r.check = func(t *testing.T, lanes map[string]*laneRun) {
		for name, lr := range lanes {
			if m := lr.e.Result().Get(group); !math.IsNaN(m) {
				t.Errorf("%s: group %v holds %g, want NaN", name, group, m)
			}
		}
	}
	runRows(t, r)
}
