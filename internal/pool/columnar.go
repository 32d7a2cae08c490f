// Package pool implements the columnar data layout of Sec. 5.2.2 as a
// wire format: typed column-per-attribute batches, their compact
// encoding, and the row/column transformers used for serialization.
// Materialized views themselves live in mring.Relation, and every
// statement evaluates over them tuple at a time.
package pool

import (
	"fmt"
	"math/bits"

	"repro/internal/mring"
	"repro/internal/wire"
)

// Mixed is the kind of a column whose values differ in kind: each of its
// values is written as wire.Enc.Value, kind byte first. It makes the
// columnar batch lossless for every relation; a kind-pure column stays
// one typed array with no per-value tag.
const Mixed = mring.KString + 1

// Column is one column of a columnar batch. Exactly one of the value
// slices is populated, according to Kind: Vals for a Mixed column.
type Column struct {
	Kind mring.Kind
	Ints []int64
	Flts []float64
	Strs []string
	Vals []mring.Value
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case mring.KInt:
		return len(c.Ints)
	case mring.KFloat:
		return len(c.Flts)
	case mring.KString:
		return len(c.Strs)
	default:
		return len(c.Vals)
	}
}

func (c *Column) append(v mring.Value) {
	switch c.Kind {
	case mring.KInt:
		c.Ints = append(c.Ints, v.AsInt())
	case mring.KFloat:
		c.Flts = append(c.Flts, v.AsFloat())
	case mring.KString:
		c.Strs = append(c.Strs, v.S)
	default:
		c.Vals = append(c.Vals, v)
	}
}

func (c *Column) value(i int) mring.Value {
	switch c.Kind {
	case mring.KInt:
		return mring.Int(c.Ints[i])
	case mring.KFloat:
		return mring.Float(c.Flts[i])
	case mring.KString:
		return mring.Str(c.Strs[i])
	default:
		return c.Vals[i]
	}
}

// ColBatch is a column-oriented batch of (tuple, multiplicity) pairs —
// the layout of every serialized relation payload (Sec. 5.2.2): each
// kind-pure column encodes as one typed array, with no per-value kind
// tag; only a Mixed column tags its values.
type ColBatch struct {
	Schema mring.Schema
	Cols   []Column
	Mults  []float64
}

// NewColBatch creates an empty columnar batch. kinds fixes each column's
// type up front (generated code knows the input schema's types).
func NewColBatch(schema mring.Schema, kinds []mring.Kind) *ColBatch {
	if len(schema) != len(kinds) {
		panic("pool: schema/kinds arity mismatch")
	}
	cols := make([]Column, len(kinds))
	for i, k := range kinds {
		cols[i].Kind = k
	}
	return &ColBatch{Schema: schema.Clone(), Cols: cols}
}

// Len returns the number of rows.
func (b *ColBatch) Len() int { return len(b.Mults) }

// reserve sizes an empty batch's columns and multiplicities for n rows,
// so appending them allocates nothing more.
func (b *ColBatch) reserve(n int) {
	for i := range b.Cols {
		c := &b.Cols[i]
		switch c.Kind {
		case mring.KInt:
			c.Ints = make([]int64, 0, n)
		case mring.KFloat:
			c.Flts = make([]float64, 0, n)
		case mring.KString:
			c.Strs = make([]string, 0, n)
		default:
			c.Vals = make([]mring.Value, 0, n)
		}
	}
	b.Mults = make([]float64, 0, n)
}

// Append adds one row.
func (b *ColBatch) Append(t mring.Tuple, m float64) {
	if len(t) != len(b.Cols) {
		panic("pool: tuple arity mismatch")
	}
	for i := range b.Cols {
		b.Cols[i].append(t[i])
	}
	b.Mults = append(b.Mults, m)
}

// load materializes row i into t.
func (b *ColBatch) load(t mring.Tuple, i int) {
	for j := range b.Cols {
		t[j] = b.Cols[j].value(i)
	}
}

// Foreach visits every row in batch order, materializing tuples into a
// reused buffer.
func (b *ColBatch) Foreach(f func(t mring.Tuple, m float64)) {
	t := make(mring.Tuple, len(b.Cols))
	for i, m := range b.Mults {
		b.load(t, i)
		f(t, m)
	}
}

// ForeachReverse is Foreach from the last row to the first: the order an
// exact-layout restore re-inserts a relation's rows in.
func (b *ColBatch) ForeachReverse(f func(t mring.Tuple, m float64)) {
	t := make(mring.Tuple, len(b.Cols))
	for i := len(b.Mults) - 1; i >= 0; i-- {
		b.load(t, i)
		f(t, b.Mults[i])
	}
}

// Rows is a row sequence in a fixed order: a relation (its Foreach
// order), a batch, or rows dealt from one.
type Rows interface {
	Foreach(f func(t mring.Tuple, m float64))
	Len() int
}

// FromRows converts a row sequence of the given schema to columnar form,
// in its order. A column whose values share one kind is typed with it
// (an int column when there are no rows); one that mixes kinds is Mixed,
// so the conversion is lossless. Every column is sized to the row count
// before it is filled.
func FromRows(schema mring.Schema, r Rows) *ColBatch {
	b := NewColBatch(schema, columnKinds(r, len(schema), nil))
	b.reserve(r.Len())
	r.Foreach(b.Append)
	return b
}

// FromRelation is FromRows over a relation, in its Foreach order.
func FromRelation(r *mring.Relation) *ColBatch { return FromRows(r.Schema(), r) }

// EncodedSize is len(FromRows(schema, r).Encode()), computed from the
// values without building or encoding the batch.
func EncodedSize(schema mring.Schema, r Rows) int {
	n := r.Len()
	size := uvarintLen(uint64(len(schema))) + uvarintLen(uint64(n)) + 8*n
	for _, name := range schema {
		size += uvarintLen(uint64(len(name))) + len(name) + 1
	}
	kinds := columnKinds(r, len(schema), func(v mring.Value) {
		switch v.K {
		case mring.KInt:
			size += varintLen(v.I)
		case mring.KFloat:
			size += 8
		default:
			size += uvarintLen(uint64(len(v.S))) + len(v.S)
		}
	})
	for _, k := range kinds {
		if k == Mixed {
			size += n // a kind byte per value
		}
	}
	return size
}

// columnKinds returns the kind of each of r's columns: the one its values
// share, Mixed when they differ, KInt when there are no rows. each, when
// set, visits every value.
func columnKinds(r Rows, arity int, each func(v mring.Value)) []mring.Kind {
	kinds := make([]mring.Kind, arity)
	first := true
	r.Foreach(func(t mring.Tuple, _ float64) {
		for i, v := range t {
			if v.K != kinds[i] {
				if first {
					kinds[i] = v.K
				} else {
					kinds[i] = Mixed
				}
			}
			if each != nil {
				each(v)
			}
		}
		first = false
	})
	return kinds
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of v as a zig-zag varint (wire.Enc.Varint).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Encode serializes the batch into a compact binary columnar layout. The
// format is self-describing: schema, column kinds, then per-column value
// arrays (a Mixed column's values each kind-tagged), then multiplicities.
// It is the body of every relation payload; its length measures the
// simulated cluster's network traffic.
func (b *ColBatch) Encode() []byte {
	var e wire.Enc
	e.Int(len(b.Schema))
	for i, name := range b.Schema {
		e.Str(name)
		e.Byte(byte(b.Cols[i].Kind))
	}
	e.Int(b.Len())
	for i := range b.Cols {
		c := &b.Cols[i]
		switch c.Kind {
		case mring.KInt:
			e.Varints(c.Ints)
		case mring.KFloat:
			e.Floats(c.Flts)
		case mring.KString:
			for _, v := range c.Strs {
				e.Str(v)
			}
		default:
			e.Tuple(c.Vals)
		}
	}
	e.Floats(b.Mults)
	return e.B
}

// Decode deserializes a batch produced by Encode.
func Decode(buf []byte) (*ColBatch, error) {
	d := wire.NewDec(buf)
	// Every column header costs at least two bytes (name length and kind).
	nc := d.Count(2)
	schema := make(mring.Schema, nc)
	kinds := make([]mring.Kind, nc)
	for i := range schema {
		schema[i] = d.Str()
		if kinds[i] = mring.Kind(d.Byte()); kinds[i] > Mixed {
			d.Fail("unknown column kind %d", kinds[i])
		}
	}
	// Each row costs at least 8 bytes for its multiplicity alone.
	n := d.Count(8)
	b := NewColBatch(schema, kinds)
	for i := range b.Cols {
		// Every value takes at least one byte: refuse a column the bytes
		// left cannot hold before allocating it.
		if d.Len() < n {
			d.Fail("column %q truncated", schema[i])
			break
		}
		c := &b.Cols[i]
		switch c.Kind {
		case mring.KInt:
			c.Ints = make([]int64, n)
			d.Varints(c.Ints)
		case mring.KFloat:
			c.Flts = make([]float64, n)
			d.Floats(c.Flts)
		case mring.KString:
			c.Strs = make([]string, n)
			for j := range c.Strs {
				c.Strs[j] = d.Str()
			}
		default:
			c.Vals = make([]mring.Value, n)
			d.Tuple(c.Vals)
		}
	}
	b.Mults = make([]float64, n)
	d.Floats(b.Mults)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("pool: bad batch: %w", err)
	}
	return b, nil
}
