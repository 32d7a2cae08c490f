package ivm

import (
	"math"
	"testing"

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
