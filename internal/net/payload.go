package net

import (
	"fmt"

	"repro/internal/mring"
	"repro/internal/pool"
	"repro/internal/wire"
)

// A relation payload is self-describing, tagged by its first byte:
//
//	0x00  columnar — pool.ColBatch.Encode bytes, lossless for every
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

// EncodePayload serializes r through batch, whose row order is what the
// receiver replays, or in r's Foreach order when batch is nil. Empty
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
	return EncodeRowsPlain(r.Schema(), r)
}

// EncodeRowsPlain is EncodeRelationPlain over any row sequence of the
// given schema, in its order: rows dealt from a relation encode exactly
// as a relation holding them in that order would.
func EncodeRowsPlain(schema mring.Schema, r pool.Rows) []byte {
	if r.Len() == 0 {
		return nil
	}
	return append([]byte{payloadColumnar}, pool.FromRows(schema, r).Encode()...)
}

// DecodePayload parses one relation payload into its batch, whose
// Foreach visits the rows in wire order. Every count and length is
// bounds-checked against the remaining input before allocation, and
// unknown tags, kinds, and truncations return errors — the function must
// never panic on hostile bytes (it is fuzzed).
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

// decodeRowPayload reads a row-format payload into a batch of Mixed
// columns, in wire order.
func decodeRowPayload(buf []byte) (*pool.ColBatch, error) {
	d := wire.NewDec(buf)
	schema := mring.Schema(d.Strs())
	if len(schema) > maxPayloadCols {
		d.Fail("column count %d exceeds %d", len(schema), maxPayloadCols)
	}
	// Every row ends in an 8-byte multiplicity, so a row count past
	// len/8 is a lie about the input size — refuse it before allocating.
	n := d.Count(8)
	kinds := make([]mring.Kind, len(schema))
	for i := range kinds {
		kinds[i] = pool.Mixed
	}
	b := pool.NewColBatch(schema, kinds)
	t := make(mring.Tuple, len(schema))
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Tuple(t)
		b.Append(t, d.Float())
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return b, nil
}
