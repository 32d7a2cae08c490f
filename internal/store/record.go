// Package store is the durability subsystem: a write-ahead log of
// committed transactions plus a versioned checkpoint store, both under
// one directory. The engine appends a WAL record per accepted
// transaction BEFORE acking it, periodically snapshots its full state
// into a checkpoint file, and on reopen restores the newest valid
// checkpoint and replays only the WAL tail written since — recovery cost
// is proportional to the log since the last checkpoint, never a full
// re-evaluation from base tables.
//
// Layout of a store directory:
//
//	checkpoint-<gen>.ckpt   snapshot closing generation <gen>
//	wal-<gen>.log           records accepted during generation <gen>
//
// A checkpoint at generation g captures every record in segments < g, so
// recovery = newest valid checkpoint g* + replay of segments >= g*.
// Records reuse the internal/net payload codec for table contents and
// the same frame-style bounds-guarded decoding discipline: every length
// is checked against the remaining bytes before use, and arbitrary input
// can never panic the decoder (FuzzWALDecode pins this).
package store

import (
	"encoding/binary"
	"fmt"

	inet "repro/internal/net"
	"repro/internal/wire"
)

// Record kinds. A tx record is one accepted transaction (the per-table
// delta batches in fold order); a warm record is a bulk Warm load (the
// full base-table contents). Replaying records in sequence through the
// engine's normal maintenance path reproduces its state bitwise.
const (
	RecTx   byte = 1
	RecWarm byte = 2
)

// MaxRecord bounds a WAL record body, mirroring the transport's frame
// cap so a corrupt length field cannot demand an arbitrary allocation.
const MaxRecord = inet.MaxFrame

// TableFrag is one table's contents inside a record: the batch (or base
// table, for warm records) encoded with inet.EncodeRelationPlain, plus
// the relation's bucket-table size so replay can rebuild the exact
// physical layout (see inet.RestoreIntoExact). An empty relation has a
// nil Payload; its schema is resolved from the program's base schemas.
type TableFrag struct {
	Table   string
	Buckets int
	Payload []byte
}

// Record is one WAL entry. Tables preserve the transaction's fold order.
type Record struct {
	Kind   byte
	Tables []TableFrag
}

// EncodeRecord serializes a record body (framing is added by the WAL
// writer): kind byte, table count, then per table its name, bucket count
// and payload, in the internal/wire codec.
func EncodeRecord(r Record) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, tf := range r.Tables {
		size += 3*binary.MaxVarintLen64 + len(tf.Table) + len(tf.Payload)
	}
	b := AppendRecordHead(make([]byte, 0, size), r.Kind, len(r.Tables))
	for _, tf := range r.Tables {
		b = AppendTableHead(b, tf.Table, tf.Buckets)
		e := wire.Enc{B: b}
		e.Bytes(tf.Payload)
		b = e.B
	}
	return b
}

// AppendRecordHead appends the start of a record body to dst: its kind
// and table count. A caller that writes each table's payload in place
// follows it with the tables, each an AppendTableHead and then the
// payload with its length prefix (inet.AppendPayload), and logs the body
// with Store.AppendBody.
func AppendRecordHead(dst []byte, kind byte, tables int) []byte {
	e := wire.Enc{B: dst}
	e.Byte(kind)
	e.Int(tables)
	return e.B
}

// AppendTableHead appends a table's name and bucket count to a record
// body; its payload follows.
func AppendTableHead(dst []byte, table string, buckets int) []byte {
	e := wire.Enc{B: dst}
	e.Str(table)
	e.Int(buckets)
	return e.B
}

// DecodeRecord parses a record body. It is strict: unknown kinds, any
// out-of-bounds length, an invalid bucket count, or trailing bytes are
// errors. It never panics on arbitrary input.
func DecodeRecord(body []byte) (Record, error) {
	var rec Record
	if len(body) == 0 {
		return rec, fmt.Errorf("store: empty record body")
	}
	d := wire.NewDec(body)
	rec.Kind = d.Byte()
	if rec.Kind != RecTx && rec.Kind != RecWarm {
		return rec, fmt.Errorf("store: unknown record kind %d", rec.Kind)
	}
	// Each table needs at least 3 bytes (empty name, zero buckets, empty
	// payload), so the count is bounded by the remaining length.
	rec.Tables = make([]TableFrag, d.Count(3))
	for i := range rec.Tables {
		tf := &rec.Tables[i]
		tf.Table = d.Str()
		buckets := d.Uvarint()
		if buckets != 0 && (buckets < 8 || buckets > inet.MaxRestoreBuckets || buckets&(buckets-1) != 0) {
			d.Fail("bucket count %d is not a power of two in [8, %d]", buckets, inet.MaxRestoreBuckets)
		}
		tf.Buckets = int(buckets)
		tf.Payload = d.Bytes()
	}
	if err := d.Done(); err != nil {
		return rec, fmt.Errorf("store: bad record: %w", err)
	}
	return rec, nil
}
