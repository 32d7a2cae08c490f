package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
)

func testRecord(i int) Record {
	r := mring.NewRelation(mring.Schema{"k", "v"})
	r.Add(mring.Tuple{mring.Int(int64(i)), mring.Int(int64(i * 7))}, 2)
	r.Add(mring.Tuple{mring.Int(int64(i + 100)), mring.Int(3)}, -1)
	return Record{Kind: RecTx, Tables: []TableFrag{{
		Table:   "t",
		Buckets: r.TableSize(),
		Payload: inet.EncodeRelationPlain(r),
	}}}
}

func openAppend(t *testing.T, dir string, n int) {
	t.Helper()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records))
	}
	for i := 0; i < n; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	openAppend(t, dir, 5)
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if rec.HasCheckpoint || rec.TornTail {
		t.Fatalf("unexpected recovery flags: %+v", rec)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !reflect.DeepEqual(r, testRecord(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Appends continue after recovery.
	if err := s.Append(testRecord(5)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// walPath returns the single active segment.
func walPath(t *testing.T, dir string) string {
	t.Helper()
	gens, err := listGens(dir, "wal-", ".log")
	if err != nil || len(gens) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	return filepath.Join(dir, walName(gens[len(gens)-1]))
}

// TestTornTailTruncatedRecordDropped: a crash mid-append leaves a
// truncated final record; reopen drops it, keeps the prefix, truncates
// the file, and appending continues cleanly.
func TestTornTailTruncatedRecordDropped(t *testing.T) {
	for cut := 1; cut <= 9; cut += 2 {
		dir := t.TempDir()
		openAppend(t, dir, 3)
		p := walPath(t, dir)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if !rec.TornTail || len(rec.Records) != 2 {
			t.Fatalf("cut %d: torn=%v n=%d, want torn with 2 records", cut, rec.TornTail, len(rec.Records))
		}
		if err := s.Append(testRecord(9)); err != nil {
			t.Fatalf("cut %d: append after torn tail: %v", cut, err)
		}
		s.Close()
		// The re-appended record must be readable: the torn bytes are gone.
		_, rec2, err := Open(dir, Options{})
		if err != nil || len(rec2.Records) != 3 {
			t.Fatalf("cut %d: second reopen: n=%d err=%v", cut, len(rec2.Records), err)
		}
	}
}

// TestTornTailCorruptLastRecordDropped: a fully-written final record
// with a bad CRC (bit rot, torn sector) is dropped like a torn one.
func TestTornTailCorruptLastRecordDropped(t *testing.T) {
	dir := t.TempDir()
	openAppend(t, dir, 3)
	p := walPath(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the last record's body
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if !rec.TornTail || len(rec.Records) != 2 {
		t.Fatalf("torn=%v n=%d, want torn with 2 records", rec.TornTail, len(rec.Records))
	}
}

// TestCorruptInteriorRecordErrors: damage followed by more records means
// history would be silently skipped — that must be a hard error.
func TestCorruptInteriorRecordErrors(t *testing.T) {
	dir := t.TempDir()
	openAppend(t, dir, 3)
	p := walPath(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+6] ^= 0xff // first record's body
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("expected interior corruption error")
	}
}

func TestCheckpointRollAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(4, []byte("snap-a")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 4; i < 7; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !rec.HasCheckpoint || rec.Gen != 1 || rec.Seq != 4 || !bytes.Equal(rec.Checkpoint, []byte("snap-a")) {
		t.Fatalf("bad checkpoint recovery: %+v", rec)
	}
	// Only the tail since the checkpoint replays.
	if len(rec.Records) != 3 || !reflect.DeepEqual(rec.Records[0], testRecord(4)) {
		t.Fatalf("tail: %d records", len(rec.Records))
	}
}

// TestCorruptNewestCheckpointFallsBack: a damaged newest checkpoint is
// skipped; recovery restores the older one and replays BOTH segments'
// records since it.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s.Append(testRecord(i))
	}
	if err := s.Checkpoint(2, []byte("snap-1")); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		s.Append(testRecord(i))
	}
	if err := s.Checkpoint(5, []byte("snap-2")); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 6; i++ {
		s.Append(testRecord(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage checkpoint-2.
	p := filepath.Join(dir, ckptName(2))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{Retain: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !rec.HasCheckpoint || rec.Gen != 1 || rec.SkippedCheckpoints != 1 || !bytes.Equal(rec.Checkpoint, []byte("snap-1")) {
		t.Fatalf("fallback recovery: %+v", rec)
	}
	if len(rec.Records) != 4 || rec.Segments != 2 {
		t.Fatalf("want 4 records over 2 segments, got %d over %d", len(rec.Records), rec.Segments)
	}
}

func TestGCRetainsGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		s.Append(testRecord(g))
		if err := s.Checkpoint(int64(g+1), []byte("snap")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ckpts, _ := listGens(dir, "checkpoint-", ".ckpt")
	segs, _ := listGens(dir, "wal-", ".log")
	if !reflect.DeepEqual(ckpts, []uint64{4, 5}) {
		t.Fatalf("retained checkpoints %v, want [4 5]", ckpts)
	}
	if len(segs) == 0 || segs[0] != 4 {
		t.Fatalf("retained segments %v, want starting at 4", segs)
	}
}

// TestGroupCommitSyncsLess pins the group-commit policy: syncEvery=8
// fsyncs at most 1/8th as often, and Sync() is the explicit barrier.
func TestGroupCommitSyncsLess(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 16; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Fatalf("syncs=%d, want 2 for 16 appends at SyncEvery=8", got)
	}
	s.Append(testRecord(99))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 3 {
		t.Fatalf("syncs=%d after barrier, want 3", got)
	}
}

func TestSealedSegmentDamageErrors(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Append(testRecord(0))
	if err := s.Checkpoint(1, []byte("snap-1")); err != nil {
		t.Fatal(err)
	}
	s.Append(testRecord(1))
	if err := s.Checkpoint(2, []byte("snap-2")); err != nil {
		t.Fatal(err)
	}
	s.Append(testRecord(2))
	s.Close()
	// Damage checkpoint-2: recovery falls back to checkpoint-1 and must
	// replay segments 1 (now SEALED) and 2. A truncated tail on the
	// sealed segment 1 is FATAL — torn tails are only legal on the
	// active segment.
	ck := filepath.Join(dir, ckptName(2))
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	os.WriteFile(ck, data, 0o644)
	seg1 := filepath.Join(dir, walName(1))
	sdata, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(seg1, sdata[:len(sdata)-2], 0o644)
	if _, _, err := Open(dir, Options{Retain: 4}); err == nil {
		t.Fatalf("expected sealed-segment error")
	}
}

// TestAppendRefusesOversizedRecord pins that the log never writes a
// record its reader refuses: a body over MaxRecord fails with a
// *RecordTooLargeError before any byte of it lands (the body is never
// touched, so its pages stay unmapped), the segment keeps only what was
// logged, and appending and reopening continue as before.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	err = s.AppendBody(make([]byte, MaxRecord+1))
	if tooLarge, ok := err.(*RecordTooLargeError); !ok || tooLarge.Len != MaxRecord+1 {
		t.Fatalf("oversized append returned %v, want a *RecordTooLargeError", err)
	}
	if after, err := os.ReadFile(walPath(t, dir)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused record changed the segment (%v)", err)
	}
	if err := s.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after a refused record: %v", err)
	}
	defer s.Close()
	if len(rec.Records) != 2 || !reflect.DeepEqual(rec.Records[1], testRecord(1)) {
		t.Fatalf("recovered %d records, want the 2 logged", len(rec.Records))
	}
}

// TestAppendedBodyMatchesEncodeRecord pins that a record body built in
// place — heads appended, each payload written after them by a reused
// pool.Writer — is byte-identical to EncodeRecord over payloads encoded
// one by one, empty tables and Mixed columns included.
func TestAppendedBodyMatchesEncodeRecord(t *testing.T) {
	empty := mring.NewRelation(mring.Schema{"k"})
	mixed := mring.NewRelation(mring.Schema{"k", "v"})
	mixed.Add(mring.Tuple{mring.Str("x"), mring.Float(0.5)}, 1)
	mixed.Add(mring.Tuple{mring.Int(4), mring.Float(-1)}, 2)
	ints := mring.NewRelation(mring.Schema{"k", "v"})
	for i := 0; i < 20; i++ {
		ints.Add(mring.Tuple{mring.Int(int64(i)), mring.Int(int64(i * 7))}, 2)
	}
	var w pool.Writer
	buf := []byte("stale bytes")
	for _, rec := range []struct {
		kind byte
		rels []*mring.Relation
	}{{RecWarm, []*mring.Relation{mixed, empty, ints}}, {RecTx, []*mring.Relation{ints}}, {RecTx, nil}} {
		want := Record{Kind: rec.kind}
		buf = AppendRecordHead(buf[:0], rec.kind, len(rec.rels))
		for i, r := range rec.rels {
			name := string(rune('a' + i))
			want.Tables = append(want.Tables, TableFrag{Table: name, Buckets: r.TableSize(), Payload: inet.EncodeRelationPlain(r)})
			buf = AppendTableHead(buf, name, r.TableSize())
			buf = inet.AppendPayload(buf, &w, r.Schema(), r)
		}
		if !bytes.Equal(buf, EncodeRecord(want)) {
			t.Fatalf("record built in place:\n%x\nEncodeRecord:\n%x", buf, EncodeRecord(want))
		}
	}
}
