package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// WAL segment layout:
//
//	header:  "IVWL" | version byte | u64 BE generation     (13 bytes)
//	record:  u32 BE len(body) | body | u32 BE crc32(body)  (IEEE)
//
// Appends are fsync'd per the store's sync policy; the header is synced
// at creation so a segment is never observed without it.
const (
	walMagic     = "IVWL"
	walVersion   = 1
	walHeaderLen = len(walMagic) + 1 + 8
)

func walHeader(gen uint64) []byte {
	h := make([]byte, 0, walHeaderLen)
	h = append(h, walMagic...)
	h = append(h, walVersion)
	h = binary.BigEndian.AppendUint64(h, gen)
	return h
}

// AppendRecordFrame frames an encoded record body for the log: length
// prefix, body, trailing CRC over the body.
func AppendRecordFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// ScanResult is the outcome of scanning one WAL segment.
type ScanResult struct {
	Gen     uint64
	Records []Record
	// ValidLen is the byte offset of the end of the last valid record
	// (including the header); a torn tail is truncated back to it.
	ValidLen int
	// TornTail reports that the segment ended in an incomplete or
	// corrupt FINAL record, which was dropped. Only legal in the active
	// (newest) segment: an append was in flight when the process died.
	TornTail bool
}

// ScanSegment decodes a whole WAL segment. active marks the newest
// segment, the only place a torn tail is expected: there, a truncated or
// corrupt final record is dropped (reported via TornTail) because a
// crash mid-append legitimately leaves one. Everywhere else — sealed
// segments, or corruption that is FOLLOWED by more bytes — damage means
// the log is unusable and scanning errors instead, so recovery never
// silently skips interior history.
func ScanSegment(data []byte, active bool) (ScanResult, error) {
	var res ScanResult
	if len(data) < walHeaderLen {
		return res, fmt.Errorf("store: segment shorter than header (%d bytes)", len(data))
	}
	if string(data[:len(walMagic)]) != walMagic {
		return res, fmt.Errorf("store: bad segment magic %q", data[:len(walMagic)])
	}
	if v := data[len(walMagic)]; v != walVersion {
		return res, fmt.Errorf("store: unsupported segment version %d (have %d)", v, walVersion)
	}
	res.Gen = binary.BigEndian.Uint64(data[len(walMagic)+1 : walHeaderLen])
	off := walHeaderLen
	res.ValidLen = off

	torn := func(reason string) (ScanResult, error) {
		if !active {
			return res, fmt.Errorf("store: sealed segment gen %d: %s at offset %d", res.Gen, reason, off)
		}
		res.TornTail = true
		return res, nil
	}

	for off < len(data) {
		if len(data)-off < 4 {
			return torn("truncated length prefix")
		}
		l := int(binary.BigEndian.Uint32(data[off : off+4]))
		if l < 1 || l > MaxRecord {
			// A torn append cannot produce a garbage length (appends land
			// prefix-first and the file is never preallocated), so a bad
			// length is corruption even at the tail.
			return res, fmt.Errorf("store: corrupt record length %d at offset %d", l, off)
		}
		if len(data)-off < 4+l+4 {
			return torn("truncated record")
		}
		body := data[off+4 : off+4+l]
		crc := binary.BigEndian.Uint32(data[off+4+l : off+8+l])
		if crc32.ChecksumIEEE(body) != crc {
			if active && off+8+l == len(data) {
				// Corrupt FINAL record: dropped, like a torn one.
				res.TornTail = true
				return res, nil
			}
			return res, fmt.Errorf("store: corrupt interior record at offset %d (crc mismatch)", off)
		}
		rec, err := DecodeRecord(body)
		if err != nil {
			// The CRC passed, so these bytes were written whole: this is
			// not a torn write but a format error. Fail loudly.
			return res, fmt.Errorf("store: record at offset %d: %w", off, err)
		}
		res.Records = append(res.Records, rec)
		off += 8 + l
		res.ValidLen = off
	}
	return res, nil
}

// walWriter appends framed records to one segment file under a sync
// policy: syncEvery == 1 fsyncs each append (commit durability),
// syncEvery == n > 1 fsyncs every n-th append (group commit: up to n-1
// acked transactions can be lost on crash), syncEvery < 0 never fsyncs
// on append (benchmarking / OS-crash-only durability). Sync barriers
// (checkpoint, close) always flush regardless of policy.
type walWriter struct {
	f         *os.File
	syncEvery int
	pending   int
	buf       []byte

	records int64
	bytes   int64
	syncs   int64
}

// createSegment writes a fresh segment with a synced header.
func createSegment(path string, gen uint64, syncEvery int) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walHeader(gen)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, syncEvery: syncEvery}, nil
}

// openSegment opens an existing segment for appending at size (the
// validated length; anything past it was a torn tail, already truncated).
func openSegment(path string, syncEvery int) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, syncEvery: syncEvery}, nil
}

// RecordTooLargeError reports a record body over MaxRecord, which the
// log refuses before writing any byte of it: a reader would refuse the
// record, and the directory would not reopen.
type RecordTooLargeError struct{ Len int }

func (e *RecordTooLargeError) Error() string {
	return fmt.Sprintf("store: record of %d bytes exceeds MaxRecord (%d)", e.Len, MaxRecord)
}

func (w *walWriter) append(body []byte) error {
	if len(body) > MaxRecord {
		return &RecordTooLargeError{Len: len(body)}
	}
	w.buf = AppendRecordFrame(w.buf[:0], body)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.records++
	w.bytes += int64(len(w.buf))
	w.pending++
	if w.syncEvery > 0 && w.pending >= w.syncEvery {
		return w.sync()
	}
	return nil
}

// sync flushes any unsynced appends to stable storage.
func (w *walWriter) sync() error {
	if w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.pending = 0
	w.syncs++
	return nil
}

func (w *walWriter) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
