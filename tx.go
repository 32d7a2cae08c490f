package ivm

import (
	"fmt"
	"maps"
)

// Tx is an atomic multi-table transaction: per-table update batches
// that Engine.Apply folds into the maintained views in one maintenance
// step. Tables fold in first-touch order, which is also the order the
// per-table triggers run in, so two engines fed the same transactions
// stay bitwise in lockstep.
//
// Build one with NewTx (register batches with Put or Batch) or with
// Engine.NewTx, which knows the engine's base schemas and lets
// Insert/Delete/Change create batches on demand:
//
//	tx := eng.NewTx()
//	tx.Insert("R", ivm.Row(1, 10))
//	tx.Delete("S", ivm.Row(10, 7))
//	err := eng.Apply(tx)
type Tx struct {
	order   []string
	batches map[string]*Batch
	// bases supplies schemas for batches created on demand; nil on a
	// standalone Tx.
	bases map[string]Schema
}

// NewTx returns an empty standalone transaction. Batches must be
// registered explicitly (Put, Batch); prefer Engine.NewTx when an
// engine is at hand.
func NewTx() *Tx {
	return &Tx{batches: make(map[string]*Batch)}
}

// NewTx returns an empty transaction bound to the engine's base
// schemas, so Insert/Delete/Change can create per-table batches on
// demand and reject unknown tables immediately.
func (e *Engine) NewTx() *Tx {
	tx := NewTx()
	tx.bases = e.prog.Bases
	return tx
}

// Batch returns the transaction's update batch for table, creating an
// empty one with the given schema on first use.
func (tx *Tx) Batch(table string, schema Schema) *Batch {
	if b, ok := tx.batches[table]; ok {
		return b
	}
	b := NewBatch(schema)
	tx.batches[table] = b
	tx.order = append(tx.order, table)
	return b
}

// Put registers a prepared batch for table (the transaction owns it
// afterwards), merging when the transaction already holds one for the
// table. Nil and schema-mismatched batches are rejected.
func (tx *Tx) Put(table string, b *Batch) error {
	if b == nil {
		return fmt.Errorf("ivm: nil batch for table %q", table)
	}
	if have, ok := tx.batches[table]; ok {
		if !have.rel.Schema().Equal(b.rel.Schema()) {
			return fmt.Errorf("ivm: batch schema %v for table %q does not match the transaction's %v",
				[]string(b.rel.Schema()), table, []string(have.rel.Schema()))
		}
		var err error
		b.rel.Foreach(func(t Tuple, m float64) {
			if err == nil {
				err = finiteChange(have.rel, t, m)
			}
		})
		if err != nil {
			return err
		}
		have.rel.Merge(b.rel)
		return nil
	}
	tx.batches[table] = b
	tx.order = append(tx.order, table)
	return nil
}

// batchFor resolves (or creates, when schemas are known) the batch for
// table.
func (tx *Tx) batchFor(table string) (*Batch, error) {
	if b, ok := tx.batches[table]; ok {
		return b, nil
	}
	if tx.bases == nil {
		return nil, fmt.Errorf("ivm: table %q has no batch in this transaction; register one with Put/Batch, or build the Tx with Engine.NewTx", table)
	}
	schema, ok := tx.bases[table]
	if !ok {
		return nil, fmt.Errorf("ivm: unknown table %q (engine has: %s)", table, sortedNames(maps.Keys(tx.bases)))
	}
	return tx.Batch(table, schema), nil
}

// Insert adds one insertion to the table's batch.
func (tx *Tx) Insert(table string, t Tuple) error {
	b, err := tx.batchFor(table)
	if err != nil {
		return err
	}
	return b.Insert(t)
}

// Delete adds one deletion to the table's batch.
func (tx *Tx) Delete(table string, t Tuple) error {
	b, err := tx.batchFor(table)
	if err != nil {
		return err
	}
	return b.Delete(t)
}

// Change adds a tuple with an explicit multiplicity delta to the
// table's batch.
func (tx *Tx) Change(table string, t Tuple, delta float64) error {
	b, err := tx.batchFor(table)
	if err != nil {
		return err
	}
	return b.Change(t, delta)
}

// Tables returns the updated tables in fold order (first touch).
func (tx *Tx) Tables() []string {
	return append([]string(nil), tx.order...)
}

// Len returns the total number of distinct changed tuples across all
// tables.
func (tx *Tx) Len() int {
	n := 0
	for _, b := range tx.batches {
		n += b.Len()
	}
	return n
}
