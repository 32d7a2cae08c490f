package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/mring"
	"repro/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 100_000)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 7, p); err != nil {
			t.Fatal(err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != 7 || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: typ=%d len=%d want len=%d", typ, len(got), len(p))
		}
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	app := AppendFrame(nil, 3, []byte("hello"))
	if !bytes.Equal(buf.Bytes(), app) {
		t.Fatalf("WriteFrame %x != AppendFrame %x", buf.Bytes(), app)
	}
	typ, payload, rest, err := DecodeFrame(app)
	if err != nil || typ != 3 || string(payload) != "hello" || len(rest) != 0 {
		t.Fatalf("DecodeFrame: typ=%d payload=%q rest=%d err=%v", typ, payload, len(rest), err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("clean close: got %v, want io.EOF verbatim", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	full := AppendFrame(nil, 1, []byte("payload"))
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut=%d: got %v, want ErrFrameTruncated", cut, err)
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// The guard must fire before the body allocation: a tiny input
	// announcing 256 MiB must not OOM (this test would be killed).
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	var hdr [4]byte // length 0 < 1: no room for the type byte
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestPayloadRowRoundTrip(t *testing.T) {
	schema := mring.Schema{"k", "name", "v"}
	r := mring.NewRelation(schema)
	r.Add(mring.Tuple{mring.Int(1), mring.Str("a"), mring.Float(1.5)}, 2)
	r.Add(mring.Tuple{mring.Int(2), mring.Str("b"), mring.Float(-0.25)}, 1)
	r.Add(mring.Tuple{mring.Int(3), mring.Str(""), mring.Float(0)}, -3)

	enc := EncodeRelationPlain(r)
	p, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := mring.NewRelation(p.Schema)
	p.Foreach(got.Add)
	if got.Len() != r.Len() {
		t.Fatalf("got %d rows, want %d", got.Len(), r.Len())
	}
	r.Foreach(func(tp mring.Tuple, m float64) {
		if g := got.Get(tp); g != m {
			t.Fatalf("tuple %v: got %v, want %v", tp, g, m)
		}
	})
}

// TestColumnarPayloadSmallerThanRows pins why a kind-pure column is
// typed: its values encode smaller than the same rows in the row layout,
// which tags every value with its kind.
func TestColumnarPayloadSmallerThanRows(t *testing.T) {
	schema := mring.Schema{"a", "b", "c", "d"}
	r := mring.NewRelation(schema)
	for i := 0; i < 1000; i++ {
		r.Add(mring.Tuple{mring.Int(int64(i)), mring.Int(int64(i % 10)), mring.Int(int64(i % 5)), mring.Int(int64(i % 2))}, 1)
	}
	rowLayout := wire.Enc{B: []byte{payloadRows}}
	rowLayout.Strs(schema)
	rowLayout.Int(r.Len())
	r.Foreach(func(tp mring.Tuple, m float64) {
		rowLayout.Tuple(tp)
		rowLayout.Float(m)
	})
	colSize, rowSize := len(EncodePayload(r, nil)), len(rowLayout.B)
	if colSize >= rowSize {
		t.Fatalf("typed columns %dB not smaller than the row layout's %dB", colSize, rowSize)
	}
}

// TestPayloadPreservesForeachOrder pins the load-bearing property: a
// relation rebuilt from a payload replays rows in the sender's Foreach
// order, so the receiver's hash layout (hence its own Foreach order) is
// bitwise-deterministic.
func TestPayloadPreservesForeachOrder(t *testing.T) {
	schema := mring.Schema{"a", "b"}
	r := mring.NewRelation(schema)
	for i := 0; i < 500; i++ {
		r.Add(mring.Tuple{mring.Int(int64(i * 37 % 101)), mring.Str("s")}, float64(i%7)+1)
	}
	p, err := DecodePayload(EncodeRelationPlain(r))
	if err != nil {
		t.Fatal(err)
	}
	var want []mring.Tuple
	r.Foreach(func(tp mring.Tuple, m float64) { want = append(want, tp.Clone()) })
	i := 0
	p.Foreach(func(tp mring.Tuple, m float64) {
		if !tp.Equal(want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, tp, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("replayed %d rows, want %d", i, len(want))
	}
}

func TestDecodePayloadRejectsHostileInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"unknown tag":         {0x7F, 1, 2, 3},
		"rows: no schema":     {payloadRows},
		"rows: huge colcount": append([]byte{payloadRows}, binary.AppendUvarint(nil, 1<<40)...),
		"rows: huge rowcount": func() []byte {
			b := []byte{payloadRows}
			b = binary.AppendUvarint(b, 1) // 1 column
			b = binary.AppendUvarint(b, 1) // name length 1
			b = append(b, 'c')
			b = binary.AppendUvarint(b, 1<<40) // rows
			return b
		}(),
		"rows: bad kind": func() []byte {
			b := []byte{payloadRows}
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 1)
			b = append(b, 'c')
			b = binary.AppendUvarint(b, 1)
			b = append(b, 0xEE)                   // unknown kind
			return append(b, make([]byte, 16)...) // filler
		}(),
		"rows: truncated mult": func() []byte {
			b := []byte{payloadRows}
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 1)
			b = append(b, 'c')
			b = binary.AppendUvarint(b, 1)
			b = append(b, byte(mring.KInt))
			b = binary.AppendVarint(b, 42)
			return append(b, make([]byte, 7)...) // 7 < 8 multiplicity bytes... padded by guard
		}(),
		"columnar: garbage": {payloadColumnar, 0xDE, 0xAD, 0xBE, 0xEF},
	}
	for name, buf := range cases {
		if _, err := DecodePayload(buf); err == nil {
			t.Errorf("%s: hostile payload accepted", name)
		}
	}
}

// FuzzFrameDecode drives hostile bytes through the frame and payload
// decoders: neither may panic or accept-and-misparse; a frame that
// decodes must re-encode to the identical bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, opFuzzSeedType, []byte("payload")))
	r := mring.NewRelation(mring.Schema{"k", "v"})
	r.Add(mring.Tuple{mring.Int(7), mring.Str("x")}, 2)
	f.Add(AppendFrame(nil, 2, EncodeRelationPlain(r)))
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	f.Add(huge[:])
	f.Add(legacyRowPayload)
	f.Add(AppendFrame(nil, 2, legacyRowPayload))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, rest, err := DecodeFrame(data)
		if err == nil {
			re := AppendFrame(nil, typ, payload)
			if !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("re-encode mismatch: %x != %x", re, data[:len(data)-len(rest)])
			}
			// Whatever the frame carried, the payload decoder must not
			// panic and must reject or cleanly parse it.
			if p, perr := DecodePayload(payload); perr == nil {
				got := mring.NewRelation(p.Schema)
				p.Foreach(got.Add)
			}
		}
		// The payload decoder also sees the raw input (frames are not the
		// only source of payload bytes: checkpoints decode them too).
		if p, perr := DecodePayload(data); perr == nil {
			got := mring.NewRelation(p.Schema)
			p.Foreach(got.Add)
		}
	})
}

const opFuzzSeedType = 1

// TestSendRefusesOversizedFrame pins that a sender never writes a frame
// its reader refuses: a payload whose frame body would exceed MaxFrame
// fails with ErrFrameTooLarge before any byte is written, through
// WriteFrame and through a TCP connection's Send. The payload is never
// touched, so its pages stay unmapped.
func TestSendRefusesOversizedFrame(t *testing.T) {
	payload := make([]byte, MaxFrame) // body: the type byte, then MaxFrame bytes
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, payload); !errors.Is(err, ErrFrameTooLarge) || buf.Len() != 0 {
		t.Fatalf("WriteFrame returned %v after writing %d bytes, want ErrFrameTooLarge and none", err, buf.Len())
	}

	client, server := net.Pipe()
	got := make(chan int64)
	go func() {
		n, _ := io.Copy(io.Discard, server)
		got <- n
	}()
	c := newTCPConn(client)
	err := c.Send(7, payload)
	c.Close()
	if n := <-got; !errors.Is(err, ErrFrameTooLarge) || n != 0 {
		t.Fatalf("Send returned %v after sending %d bytes, want ErrFrameTooLarge and none", err, n)
	}
}
