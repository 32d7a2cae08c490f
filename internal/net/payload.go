package net

import (
	"fmt"

	"repro/internal/mring"
	"repro/internal/pool"
	"repro/internal/wire"
)

// Relation payloads cross the wire in one of two self-describing forms,
// tagged by the first byte:
//
//	0x00  columnar — pool.ColBatch.Encode bytes (lossless only when every
//	      column is single-kind; the sender decides)
//	0x01  row format — schema, then rows as (kind,value)* + multiplicity,
//	      in exactly the order the sender enumerated them
//
// Both forms preserve row order, which is load-bearing: receivers replay
// the rows as a mutation sequence, and the open-chained hash layout of
// the rebuilt relation (hence every downstream iteration and float fold
// order) is a function of that exact sequence. The row format exists so
// mixed-kind relations ship losslessly. Both are written and read with
// the internal/wire codec; a row value is wire.Enc.Value's kind byte and
// value.
const (
	payloadColumnar byte = 0
	payloadRows     byte = 1
)

// maxPayloadCols bounds the column count a payload may declare.
const maxPayloadCols = 1 << 12

// Payload is one decoded relation payload: either a columnar batch or an
// ordered row list. Foreach visits rows in wire order.
type Payload struct {
	Schema mring.Schema
	// Batch is the decoded columnar batch for columnar payloads, nil for
	// row-format payloads.
	Batch *pool.ColBatch

	rows  []mring.Tuple
	mults []float64
}

// Len returns the number of rows.
func (p *Payload) Len() int {
	if p.Batch != nil {
		return p.Batch.Len()
	}
	return len(p.rows)
}

// Foreach visits every row in wire order. The tuple may be a reused
// buffer; callers must copy what they retain (relation inserts already
// clone).
func (p *Payload) Foreach(f func(t mring.Tuple, m float64)) {
	if p.Batch != nil {
		p.Batch.Foreach(f)
		return
	}
	for i, t := range p.rows {
		f(t, p.mults[i])
	}
}

// EncodePayload serializes r: through the columnar batch when the caller
// resolved one (its row order must match what the receiver should
// replay), in row format — r's Foreach order — otherwise. Empty
// relations encode to nil.
func EncodePayload(r *mring.Relation, batch *pool.ColBatch) []byte {
	if r == nil || r.Len() == 0 {
		return nil
	}
	if batch != nil {
		return append([]byte{payloadColumnar}, batch.Encode()...)
	}
	b := NewPayloadBuilder(r.Schema())
	r.Foreach(b.Add)
	return b.Bytes()
}

// EncodeRelationPlain serializes r losslessly in its Foreach order,
// through the columnar form when the contents are single-kind per column
// and the row format otherwise.
func EncodeRelationPlain(r *mring.Relation) []byte {
	if r == nil {
		return nil
	}
	return EncodeRowsPlain(r.Schema(), r)
}

// EncodeRowsPlain is EncodeRelationPlain over any row sequence of the
// given schema, in its order: rows dealt from a relation encode exactly
// as a relation holding them in that order would.
func EncodeRowsPlain(schema mring.Schema, r pool.Rows) []byte {
	if r.Len() == 0 {
		return nil
	}
	if b, ok := pool.TryFromRows(schema, r); ok {
		return append([]byte{payloadColumnar}, b.Encode()...)
	}
	b := NewPayloadBuilder(schema)
	r.Foreach(b.Add)
	return b.Bytes()
}

// PayloadBuilder accumulates rows into a row-format payload in the exact
// order they are added — the builder for payloads whose replay order is
// an insertion order rather than a relation's Foreach order (round-robin
// delta fragments, keyed warm-start splits).
type PayloadBuilder struct {
	schema mring.Schema
	n      int
	body   wire.Enc
}

// NewPayloadBuilder returns an empty builder for the given schema.
func NewPayloadBuilder(schema mring.Schema) *PayloadBuilder {
	return &PayloadBuilder{schema: schema}
}

// Add appends one row.
func (b *PayloadBuilder) Add(t mring.Tuple, m float64) {
	b.body.Tuple(t)
	b.body.Float(m)
	b.n++
}

// Bytes serializes the accumulated rows; nil when no rows were added.
func (b *PayloadBuilder) Bytes() []byte {
	if b.n == 0 {
		return nil
	}
	e := wire.Enc{B: []byte{payloadRows}}
	e.Strs(b.schema)
	e.Int(b.n)
	return append(e.B, b.body.B...)
}

// DecodePayload parses one relation payload. Every count and length is
// bounds-checked against the remaining input before allocation, and
// unknown tags, kinds, and truncations return errors — the function must
// never panic on hostile bytes (it is fuzzed).
func DecodePayload(buf []byte) (*Payload, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("net: empty relation payload")
	}
	switch buf[0] {
	case payloadColumnar:
		cb, err := pool.Decode(buf[1:])
		if err != nil {
			return nil, fmt.Errorf("net: columnar payload: %w", err)
		}
		return &Payload{Schema: cb.Schema, Batch: cb}, nil
	case payloadRows:
		p, err := decodeRowPayload(buf[1:])
		if err != nil {
			return nil, fmt.Errorf("net: row payload: %w", err)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("net: unknown payload tag 0x%02x", buf[0])
	}
}

func decodeRowPayload(buf []byte) (*Payload, error) {
	d := wire.NewDec(buf)
	schema := mring.Schema(d.Strs())
	if len(schema) > maxPayloadCols {
		d.Fail("column count %d exceeds %d", len(schema), maxPayloadCols)
	}
	// Every row ends in an 8-byte multiplicity, so a row count past
	// len/8 is a lie about the input size — refuse it before allocating.
	n := d.Count(8)
	p := &Payload{Schema: schema, rows: make([]mring.Tuple, n), mults: make([]float64, n)}
	for r := range p.rows {
		t := make(mring.Tuple, len(schema))
		d.Tuple(t)
		p.rows[r] = t
		p.mults[r] = d.Float()
		if d.Err() != nil {
			break
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
}
