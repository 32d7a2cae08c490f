// Package net puts the engine's already-serialized wire format on a real
// transport: length-prefixed frames over TCP (the Transport interface is
// shaped so a QUIC implementation can slot in), carrying the columnar
// relation payloads of internal/pool between a driver process and N
// worker processes, and streaming the changefeed to remote
// subscribers. Every decoder in this package is hardened against hostile
// bytes: malformed frames and payloads return errors, never panic, and
// never allocate unbounded memory.
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds one frame's body (type byte + payload). A frame header
// announcing more is rejected before any allocation, so a hostile peer
// cannot make a receiver allocate unbounded memory.
const MaxFrame = 1 << 28 // 256 MiB

// frameHeader is the fixed frame prefix: a 4-byte big-endian body length.
const frameHeader = 4

// Frame layout: 4-byte big-endian length L (covering everything after the
// header), then 1 type byte, then L-1 payload bytes.

// ErrFrameTooLarge reports a frame header announcing a body over MaxFrame.
var ErrFrameTooLarge = errors.New("net: frame exceeds MaxFrame")

// ErrFrameTruncated reports a frame shorter than its header announces.
var ErrFrameTruncated = errors.New("net: truncated frame")

// AppendFrame appends one encoded frame to dst and returns the result.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(1+len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, typ)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w. A payload whose frame body would
// exceed MaxFrame, which the reader refuses, is refused with
// ErrFrameTooLarge before any byte is written.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) >= MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeader + 1]byte
	binary.BigEndian.PutUint32(hdr[:frameHeader], uint32(1+len(payload)))
	hdr[frameHeader] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r. io.EOF is returned verbatim on a
// clean close before any header byte; a partial header or body returns
// ErrFrameTruncated (wrapped io.ErrUnexpectedEOF from the reader).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, ErrFrameTruncated
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("net: frame body length %d < 1", n)
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, ErrFrameTruncated
	}
	return body[0], body[1:], nil
}

// DecodeFrame parses one frame from the front of buf and returns the
// remaining bytes. It is the pure-function form of ReadFrame (and the
// fuzzing entry point for the frame layer).
func DecodeFrame(buf []byte) (typ byte, payload, rest []byte, err error) {
	if len(buf) < frameHeader {
		return 0, nil, nil, ErrFrameTruncated
	}
	n := binary.BigEndian.Uint32(buf[:frameHeader])
	if n < 1 {
		return 0, nil, nil, fmt.Errorf("net: frame body length %d < 1", n)
	}
	if n > MaxFrame {
		return 0, nil, nil, ErrFrameTooLarge
	}
	if uint32(len(buf)-frameHeader) < n {
		return 0, nil, nil, ErrFrameTruncated
	}
	body := buf[frameHeader : frameHeader+int(n)]
	return body[0], body[1:], buf[frameHeader+int(n):], nil
}
