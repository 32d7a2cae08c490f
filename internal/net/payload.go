package net

import (
	"fmt"

	"repro/internal/mring"
	"repro/internal/pool"
	"repro/internal/wire"
)

// A relation payload is self-describing, tagged by its first byte:
//
//	0x00  columnar — a pool.Writer encoding, lossless for every
//	      relation: a column that mixes value kinds is pool.Mixed
//	0x01  row format — schema, then rows as (kind,value)* + multiplicity.
//	      Earlier builds wrote it for mixed-kind relations and for
//	      update-batch deals; it is read, never written, so their logs
//	      still replay
//
// Both forms preserve row order, which is load-bearing: receivers replay
// the rows as a mutation sequence, and the open-chained hash layout of
// the rebuilt relation (hence every downstream iteration and float fold
// order) is a function of that exact sequence. Both are written and read
// with the internal/wire codec.
const (
	payloadColumnar byte = 0
	payloadRows     byte = 1
)

// maxPayloadCols bounds the column count a row payload may declare.
const maxPayloadCols = 1 << 12

// EncodePayload serializes r through batch, whose encoding is the
// payload's body, or in r's Foreach order when batch is nil. Empty
// relations encode to nil.
func EncodePayload(r *mring.Relation, batch *pool.ColBatch) []byte {
	if batch == nil {
		return EncodeRelationPlain(r)
	}
	if r == nil || r.Len() == 0 {
		return nil
	}
	return append([]byte{payloadColumnar}, batch.Encode()...)
}

// EncodeRelationPlain serializes r losslessly in its Foreach order.
func EncodeRelationPlain(r *mring.Relation) []byte {
	if r == nil {
		return nil
	}
	var w pool.Writer
	return EncodeRows(&w, r.Schema(), r)
}

// EncodeRows serializes a row sequence of the given schema in its order,
// written by w, whose scratch it reuses: rows dealt from a relation
// encode exactly as a relation holding them in that order would. The
// payload is its own allocation, sized exactly; empty rows encode to nil.
func EncodeRows(w *pool.Writer, schema mring.Schema, r pool.Rows) []byte {
	if r.Len() == 0 {
		return nil
	}
	n := w.Load(schema, r)
	return w.AppendTo(append(make([]byte, 0, 1+n), payloadColumnar))
}

// AppendPayload appends the payload of r, a row sequence of the given
// schema, to dst in r's order, prefixed by its length as wire.Enc.Bytes
// writes it: one pass of w writes the columns straight into dst, with no
// payload buffer of its own. An empty r appends the empty payload.
func AppendPayload(dst []byte, w *pool.Writer, schema mring.Schema, r pool.Rows) []byte {
	e := wire.Enc{B: dst}
	if r.Len() == 0 {
		e.Int(0)
		return e.B
	}
	e.Int(1 + w.Load(schema, r))
	e.Byte(payloadColumnar)
	return w.AppendTo(e.B)
}

// DecodePayload reads one relation payload as a batch whose Foreach
// visits the rows in wire order. A columnar payload is read in place:
// the batch aliases buf, which must not change while it is in use. Every
// count and length is checked against the input before any row is
// handed out, and unknown tags, kinds, and truncations return errors —
// the function must never panic on hostile bytes (it is fuzzed).
func DecodePayload(buf []byte) (*pool.ColBatch, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("net: empty relation payload")
	}
	switch buf[0] {
	case payloadColumnar:
		b, err := pool.Decode(buf[1:])
		if err != nil {
			return nil, fmt.Errorf("net: columnar payload: %w", err)
		}
		return b, nil
	case payloadRows:
		b, err := decodeRowPayload(buf[1:])
		if err != nil {
			return nil, fmt.Errorf("net: row payload: %w", err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("net: unknown payload tag 0x%02x", buf[0])
	}
}

// decodeRowPayload checks a row-format payload whole, then rewrites its
// rows, in wire order, as the columnar batch this build reads.
func decodeRowPayload(buf []byte) (*pool.ColBatch, error) {
	d := wire.NewDec(buf)
	schema := mring.Schema(d.Strs())
	if len(schema) > maxPayloadCols {
		d.Fail("column count %d exceeds %d", len(schema), maxPayloadCols)
	}
	// Every row ends in an 8-byte multiplicity, so a row count past
	// len/8 is a lie about the input size — refuse it before allocating.
	n := d.Count(8)
	rows := rowPayload{n: n, arity: len(schema), d: d}
	t := make(mring.Tuple, len(schema))
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Tuple(t)
		d.Float()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	var w pool.Writer
	return pool.Decode(w.Append(nil, schema, rows))
}

// rowPayload is the rows of a checked row-format payload, decoded from
// the bytes after its row count each time they are visited.
type rowPayload struct {
	n, arity int
	d        wire.Dec
}

func (r rowPayload) Len() int { return r.n }

func (r rowPayload) Foreach(f func(t mring.Tuple, m float64)) {
	t := make(mring.Tuple, r.arity)
	for i := 0; i < r.n; i++ {
		r.d.Tuple(t)
		f(t, r.d.Float())
	}
}
