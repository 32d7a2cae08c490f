// Package pool implements the columnar data layout of Sec. 5.2.2 as a
// wire format: every serialized relation is a column-per-attribute
// batch, written in one pass by a Writer straight into its caller's
// buffer and read in place, from the bytes it arrived in, as a ColBatch.
// Materialized views themselves live in mring.Relation, and every
// statement evaluates over them tuple at a time.
//
// A batch encodes as its schema and column kinds, its row count, then
// each column's values (a kind-pure column as bare typed values, a Mixed
// one kind-tagged), then the multiplicities — all in the internal/wire
// codec.
package pool

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mring"
	"repro/internal/wire"
)

// Mixed is the kind of a column whose values differ in kind: each of its
// values is written as wire.Enc.Value, kind byte first. It makes the
// columnar batch lossless for every relation; a kind-pure column writes
// its values bare, with no per-value tag.
const Mixed = mring.KString + 1

// Rows is a row sequence in a fixed order: a relation (its Foreach
// order), a batch, or rows dealt from one.
type Rows interface {
	Foreach(f func(t mring.Tuple, m float64))
	Len() int
}

// Writer writes the columnar encoding of row sequences. Load encodes a
// sequence's values in one Foreach into per-column scratch buffers,
// typing each column by the kind of its first value; a column that turns
// out to mix kinds is Mixed, and only then does a second pass write it.
// AppendTo then appends the batch to a caller's buffer. The scratch is
// reused from one payload to the next, so a Writer held by a connection
// or a log costs no allocation per payload once warm. The zero Writer is
// ready to use; it is not safe for concurrent use.
type Writer struct {
	schema mring.Schema
	kinds  []mring.Kind
	cols   [][]byte
	mults  []byte
	n      int
	mixed  bool
	// row and mixedRow are the Foreach callbacks, bound once to self (a
	// copied Writer binds its own).
	self          *Writer
	row, mixedRow func(mring.Tuple, float64)
}

// maxRetained bounds the scratch a Writer keeps between payloads, so one
// bulk payload, such as a warm start's, does not pin its size for the
// Writer's lifetime.
const maxRetained = 64 << 10

// Append appends the columnar encoding of r, a row sequence of the given
// schema, to dst in r's order.
func (w *Writer) Append(dst []byte, schema mring.Schema, r Rows) []byte {
	w.Load(schema, r)
	return w.AppendTo(dst)
}

// Load encodes r, a row sequence of the given schema, into the Writer's
// scratch and returns the length of its encoding, which AppendTo then
// appends. A column whose values share one kind is typed with it (an int
// column when there are no rows); one that mixes kinds is Mixed, so the
// encoding is lossless.
func (w *Writer) Load(schema mring.Schema, r Rows) int {
	nc := len(schema)
	w.schema, w.n, w.mixed = schema, 0, false
	w.kinds = slices.Grow(w.kinds[:0], nc)[:nc]
	clear(w.kinds) // KInt: the kind of an empty batch's columns
	if len(w.cols) < nc {
		w.cols = append(w.cols, make([][]byte, nc-len(w.cols))...)
	}
	// Every value takes at least a byte and every multiplicity eight, so
	// a fresh Writer sizes its scratch once for that.
	n := r.Len()
	for i := range w.cols[:nc] {
		w.cols[i] = slices.Grow(w.cols[i][:0], n)
	}
	w.mults = slices.Grow(w.mults[:0], 8*n)
	if w.self != w {
		w.self, w.row, w.mixedRow = w, w.addRow, w.addMixed
	}
	r.Foreach(w.row)
	if w.mixed {
		r.Foreach(w.mixedRow)
	}
	return w.Len()
}

// addRow writes one row's kind-pure values and its multiplicity; the
// first row fixes the column kinds.
func (w *Writer) addRow(t mring.Tuple, m float64) {
	if len(t) != len(w.kinds) {
		panic("pool: tuple arity mismatch")
	}
	if w.n == 0 {
		for i, v := range t {
			w.kinds[i] = v.K
		}
	}
	w.n++
	for i, v := range t {
		if v.K != w.kinds[i] {
			if w.kinds[i] != Mixed {
				w.kinds[i], w.cols[i], w.mixed = Mixed, w.cols[i][:0], true
			}
			continue
		}
		e := wire.Enc{B: w.cols[i]}
		switch v.K {
		case mring.KInt:
			e.Varint(v.I)
		case mring.KFloat:
			e.Float(v.AsFloat())
		default:
			e.Str(v.S)
		}
		w.cols[i] = e.B
	}
	e := wire.Enc{B: w.mults}
	e.Float(m)
	w.mults = e.B
}

// addMixed writes one row's values of the Mixed columns, each kind
// first.
func (w *Writer) addMixed(t mring.Tuple, _ float64) {
	for i, v := range t {
		if w.kinds[i] == Mixed {
			e := wire.Enc{B: w.cols[i]}
			e.Value(v)
			w.cols[i] = e.B
		}
	}
}

// Len returns the length of the loaded batch's encoding.
func (w *Writer) Len() int {
	size := w.headerLen() + len(w.mults)
	for _, c := range w.cols[:len(w.schema)] {
		size += len(c)
	}
	return size
}

// headerLen is the length of the loaded batch's schema, column kinds and
// row count.
func (w *Writer) headerLen() int {
	size := uvarintLen(uint64(len(w.schema))) + uvarintLen(uint64(w.n))
	for _, name := range w.schema {
		size += uvarintLen(uint64(len(name))) + len(name) + 1
	}
	return size
}

// AppendTo appends the loaded batch's encoding to dst: the header, then
// the column buffers and the multiplicities as Load wrote them.
func (w *Writer) AppendTo(dst []byte) []byte {
	e := wire.Enc{B: slices.Grow(dst, w.Len())}
	e.Int(len(w.schema))
	for i, name := range w.schema {
		e.Str(name)
		e.Byte(byte(w.kinds[i]))
	}
	e.Int(w.n)
	for i := range w.schema {
		e.B = append(e.B, w.cols[i]...)
	}
	e.B = append(e.B, w.mults...)
	kept := cap(w.mults)
	for _, c := range w.cols {
		kept += cap(c)
	}
	if kept > maxRetained {
		w.cols, w.mults = nil, nil
	}
	w.schema = nil
	return e.B
}

// ColBatch is a columnar batch read in place: the bytes of one encoding,
// checked whole when the batch is made, with each column's byte range.
// Foreach decodes its rows from those bytes when they are visited, so
// reading a received batch builds no column arrays. The batch aliases
// the bytes it was read from; they must not change while it is in use.
type ColBatch struct {
	Schema mring.Schema
	kinds  []mring.Kind
	buf    []byte
	// starts holds the offset in buf of each column's first value, then
	// of the first multiplicity.
	starts []int
	n      int
}

// Len returns the number of rows.
func (b *ColBatch) Len() int { return b.n }

// Kind returns column i's kind: a value kind, or Mixed.
func (b *ColBatch) Kind(i int) mring.Kind { return b.kinds[i] }

// Encode returns the batch's encoding: the bytes it was read from or
// written into. The result aliases the batch.
func (b *ColBatch) Encode() []byte { return b.buf }

// FromRelation writes r in columnar form, in its Foreach order, and
// returns the batch over the encoding.
func FromRelation(r *mring.Relation) *ColBatch {
	var w Writer
	w.Load(r.Schema(), r)
	b := &ColBatch{
		Schema: r.Schema().Clone(),
		kinds:  slices.Clone(w.kinds),
		starts: make([]int, len(w.kinds)+1),
		n:      w.n,
	}
	off := w.headerLen()
	for i, c := range w.cols[:len(w.kinds)] {
		b.starts[i] = off
		off += len(c)
	}
	b.starts[len(w.kinds)] = off
	b.buf = w.AppendTo(nil)
	return b
}

// Decode reads an encoding as a batch in place. One pass checks it
// whole — every count, kind, canonical varint and string bound, and that
// it is exactly what a Writer writes for its rows (no Mixed column whose
// values share a kind, no typed column in an empty batch) — and records
// each column's byte range, so hostile bytes fail here, before any row
// is handed out. The batch aliases buf.
func Decode(buf []byte) (*ColBatch, error) {
	d := wire.NewDec(buf)
	// Every column header costs at least two bytes (name length and kind).
	nc := d.Count(2)
	b := &ColBatch{Schema: make(mring.Schema, nc), kinds: make([]mring.Kind, nc), buf: buf}
	for i := range b.Schema {
		b.Schema[i] = d.Str()
		if b.kinds[i] = mring.Kind(d.Byte()); b.kinds[i] > Mixed {
			d.Fail("unknown column kind %d", b.kinds[i])
		}
	}
	// Each row costs at least 8 bytes for its multiplicity alone.
	b.n = d.Count(8)
	b.starts = make([]int, nc+1)
	for i, k := range b.kinds {
		b.starts[i] = d.Offset()
		switch {
		case b.n == 0 && k != mring.KInt:
			d.Fail("column %q of an empty batch has kind %d", b.Schema[i], k)
		case k == Mixed:
			if !d.SkipValues(b.n) {
				d.Fail("Mixed column %q holds values of one kind", b.Schema[i])
			}
		default:
			d.Skip(k, b.n)
		}
	}
	b.starts[nc] = d.Offset()
	d.Skip(mring.KFloat, b.n)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("pool: bad batch: %w", err)
	}
	return b, nil
}

// Foreach visits every row in batch order, decoding tuples into a reused
// buffer.
func (b *ColBatch) Foreach(f func(t mring.Tuple, m float64)) {
	t := make(mring.Tuple, len(b.kinds))
	at := slices.Clone(b.starts[:len(b.kinds)])
	for i := 0; i < b.n; i++ {
		b.row(t, at)
		f(t, b.mult(i))
	}
}

// row decodes into t the row whose values start at the offsets in at,
// advancing each offset past its value. Decode checked the batch whole,
// so row decodes the values as wire.Enc wrote them — a zig-zag varint, a
// little-endian float64 or a length-prefixed string, kind byte first in
// a Mixed column — without checking them again.
func (b *ColBatch) row(t mring.Tuple, at []int) {
	buf := b.buf
	for j, k := range b.kinds {
		p := at[j]
		if k == Mixed {
			k = mring.Kind(buf[p])
			p++
		}
		switch k {
		case mring.KInt:
			u, n := binary.Uvarint(buf[p:])
			t[j] = mring.Int(int64(u>>1) ^ -int64(u&1))
			p += n
		case mring.KFloat:
			t[j] = mring.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[p:])))
			p += 8
		default:
			l, n := binary.Uvarint(buf[p:])
			t[j] = mring.Str(string(buf[p+n : p+n+int(l)]))
			p += n + int(l)
		}
		at[j] = p
	}
}

// mult decodes row i's multiplicity.
func (b *ColBatch) mult(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.buf[b.starts[len(b.kinds)]+8*i:]))
}

// EncodedSize is the length of a Writer's encoding of r under schema,
// computed from the values without encoding them.
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
// share, Mixed when they differ, KInt when there are no rows. each
// visits every value.
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
			each(v)
		}
		first = false
	})
	return kinds
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of v as a zig-zag varint (wire.Enc.Varint).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
