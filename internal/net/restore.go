package net

import (
	"fmt"

	"repro/internal/mring"
	"repro/internal/pool"
)

// MaxRestoreBuckets bounds the bucket-table size a snapshot may ask a
// restored relation to preseed, so a corrupt size field cannot demand an
// arbitrary allocation before validation catches it.
const MaxRestoreBuckets = 1 << 28

// validateBuckets checks a snapshot's recorded bucket-table size against
// the row count it claims to have held. buckets == 0 means the source
// relation never allocated a table (only possible when it is empty).
func validateBuckets(buckets, rows int) error {
	if buckets == 0 {
		if rows != 0 {
			return fmt.Errorf("inet: snapshot has %d rows but no bucket table", rows)
		}
		return nil
	}
	if buckets < 8 || buckets > MaxRestoreBuckets || buckets&(buckets-1) != 0 {
		return fmt.Errorf("inet: snapshot bucket count %d is not a power of two in [8, %d]", buckets, MaxRestoreBuckets)
	}
	if rows > buckets {
		return fmt.Errorf("inet: snapshot has %d rows in a %d-bucket table", rows, buckets)
	}
	return nil
}

// RestoreIntoExact rebuilds dst — which must be empty and fresh (no
// bucket table yet) — from an EncodeRelationPlain payload so that dst
// hands out its tuples in the encoder's source order: the payload lists
// them in that order, and dst inserts them in it. Relation order is the
// order of insertion, and the engine's float folds follow it, so
// recovery restores state through this path. buckets is the source's
// TableSize, a capacity hint; payload may be nil/empty for an empty
// source (then only capacity is restored). Corrupt input returns a
// descriptive error and never panics.
func RestoreIntoExact(dst *mring.Relation, payload []byte, buckets int) error {
	b, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	return restoreExact(dst, b, buckets)
}

// RestoreRelationExact is RestoreIntoExact for callers that do not hold a
// pre-created relation: the schema comes from the payload itself, or from
// fallback when the payload is empty (empty relations encode to nil, which
// carries no schema).
func RestoreRelationExact(payload []byte, buckets int, fallback mring.Schema) (*mring.Relation, error) {
	b, err := decodeSnapshot(payload)
	if err != nil {
		return nil, err
	}
	schema := fallback
	if b != nil {
		schema = b.Schema
	}
	r := mring.NewRelation(schema)
	if err := restoreExact(r, b, buckets); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeSnapshot decodes a snapshot's payload; nil for an empty one.
func decodeSnapshot(payload []byte) (*pool.ColBatch, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	return DecodePayload(payload)
}

// restoreExact fills dst from a decoded snapshot (nil when empty), in the
// payload's row order, into a table preseeded to the source's bucket
// count.
func restoreExact(dst *mring.Relation, b *pool.ColBatch, buckets int) error {
	rows := 0
	if b != nil {
		if len(b.Schema) != len(dst.Schema()) {
			return fmt.Errorf("inet: snapshot schema arity %d does not match relation arity %d", len(b.Schema), len(dst.Schema()))
		}
		rows = b.Len()
	}
	if err := validateBuckets(buckets, rows); err != nil {
		return err
	}
	if buckets > 0 {
		dst.Preseed(buckets)
	}
	if b != nil {
		b.Foreach(dst.Add)
	}
	return nil
}
