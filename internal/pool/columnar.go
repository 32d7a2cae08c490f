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

// Column is one typed column of a columnar batch. Exactly one of the value
// slices is populated, according to Kind.
type Column struct {
	Kind mring.Kind
	Ints []int64
	Flts []float64
	Strs []string
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case mring.KInt:
		return len(c.Ints)
	case mring.KFloat:
		return len(c.Flts)
	default:
		return len(c.Strs)
	}
}

func (c *Column) append(v mring.Value) {
	switch c.Kind {
	case mring.KInt:
		c.Ints = append(c.Ints, v.AsInt())
	case mring.KFloat:
		c.Flts = append(c.Flts, v.AsFloat())
	default:
		c.Strs = append(c.Strs, v.S)
	}
}

func (c *Column) value(i int) mring.Value {
	switch c.Kind {
	case mring.KInt:
		return mring.Int(c.Ints[i])
	case mring.KFloat:
		return mring.Float(c.Flts[i])
	default:
		return mring.Str(c.Strs[i])
	}
}

// ColBatch is a column-oriented batch of (tuple, multiplicity) pairs —
// the layout of serialized shuffle payloads (Sec. 5.2.2): each column
// encodes as one typed array, with no per-value kind tag.
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
		default:
			c.Strs = make([]string, 0, n)
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

// Row materializes row i.
func (b *ColBatch) Row(i int) (mring.Tuple, float64) {
	t := make(mring.Tuple, len(b.Cols))
	for j := range b.Cols {
		t[j] = b.Cols[j].value(i)
	}
	return t, b.Mults[i]
}

// Foreach visits every row, materializing tuples into a reused buffer.
func (b *ColBatch) Foreach(f func(t mring.Tuple, m float64)) {
	t := make(mring.Tuple, len(b.Cols))
	for i := range b.Mults {
		for j := range b.Cols {
			t[j] = b.Cols[j].value(i)
		}
		f(t, b.Mults[i])
	}
}

// Rows is a row sequence in a fixed order: a relation (its Foreach
// order), or rows dealt from one.
type Rows interface {
	Foreach(f func(t mring.Tuple, m float64))
	Len() int
}

// TryFromRelation is the strict columnar conversion: it succeeds only
// when every column holds one value kind throughout, so the batch
// round-trips losslessly (the requirement for shipping real bytes).
// Unlike FromRelation, which coerces mixed columns to the first tuple's
// kinds, a mismatch reports ok=false.
func TryFromRelation(r *mring.Relation) (*ColBatch, bool) {
	return TryFromRows(r.Schema(), r)
}

// TryFromRows is TryFromRelation over any row sequence of the given
// schema, in its order.
func TryFromRows(schema mring.Schema, r Rows) (*ColBatch, bool) {
	kinds, ok := pureKinds(r, nil)
	if !ok {
		return nil, false
	}
	if kinds == nil {
		kinds = make([]mring.Kind, len(schema))
	}
	b := NewColBatch(schema, kinds)
	b.reserve(r.Len())
	r.Foreach(func(t mring.Tuple, m float64) { b.Append(t, m) })
	return b, true
}

// EncodedSize is len(b.Encode()) of the batch TryFromRows(schema, r)
// would build, computed from the values without building or encoding
// it; ok=false exactly when TryFromRows refuses.
func EncodedSize(schema mring.Schema, r Rows) (size int, ok bool) {
	n := r.Len()
	size = uvarintLen(uint64(len(schema))) + uvarintLen(uint64(n)) + 8*n
	for _, name := range schema {
		size += uvarintLen(uint64(len(name))) + len(name) + 1
	}
	_, ok = pureKinds(r, func(v mring.Value) {
		switch v.K {
		case mring.KInt:
			size += varintLen(v.I)
		case mring.KFloat:
			size += 8
		default:
			size += uvarintLen(uint64(len(v.S))) + len(v.S)
		}
	})
	return size, ok
}

// pureKinds returns each column's value kind, nil for no rows, and
// ok=false when a column holds two kinds. each, when set, visits every
// value of the rows it checks.
func pureKinds(r Rows, each func(v mring.Value)) (kinds []mring.Kind, ok bool) {
	ok = true
	r.Foreach(func(t mring.Tuple, _ float64) {
		if !ok {
			return
		}
		if kinds == nil {
			kinds = make([]mring.Kind, len(t))
			for i, v := range t {
				kinds[i] = v.K
			}
		}
		for i, v := range t {
			if v.K != kinds[i] {
				ok = false
				return
			}
			if each != nil {
				each(v)
			}
		}
	})
	return kinds, ok
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of v as a zig-zag varint (wire.Enc.Varint).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// FromRelation converts row-format contents to columnar form. Column
// kinds are taken from the first tuple; empty relations produce int
// columns.
func FromRelation(r *mring.Relation) *ColBatch {
	kinds := make([]mring.Kind, len(r.Schema()))
	first := true
	r.Foreach(func(t mring.Tuple, _ float64) {
		if first {
			for i, v := range t {
				kinds[i] = v.K
			}
			first = false
		}
	})
	b := NewColBatch(r.Schema(), kinds)
	r.Foreach(func(t mring.Tuple, m float64) { b.Append(t, m) })
	return b
}

// Encode serializes the batch into a compact binary columnar layout. The
// format is self-describing: schema, column kinds, then per-column value
// arrays, then multiplicities. It is the wire format of the simulated
// cluster's shuffles; its length measures network traffic.
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
		default:
			for _, v := range c.Strs {
				e.Str(v)
			}
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
		kinds[i] = d.Kind()
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
		default:
			c.Strs = make([]string, n)
			for j := range c.Strs {
				c.Strs[j] = d.Str()
			}
		}
	}
	b.Mults = make([]float64, n)
	d.Floats(b.Mults)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("pool: bad batch: %w", err)
	}
	return b, nil
}

// MergeInto adds every row of the batch into r (bag union in place) — the
// receive side of a byte-shipped shuffle fragment. Rows land in batch
// order, matching the order a Foreach-driven Merge of the source relation
// would have used.
func (b *ColBatch) MergeInto(r *mring.Relation) {
	t := make(mring.Tuple, len(b.Cols))
	for i, m := range b.Mults {
		for j := range b.Cols {
			t[j] = b.Cols[j].value(i)
		}
		r.Add(t, m)
	}
}
