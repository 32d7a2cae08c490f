package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/mring"
)

// The control-message codec: every request and response body of the
// driver/worker protocol (proto.go) is a flat sequence of unsigned
// varints (counts, lengths, ids), zig-zag varints (signed integers),
// single bytes (booleans) and length-prefixed byte strings. Maps travel
// in sorted key order, so an encoding is a function of the message alone.
// The decoder checks every count against the bytes left before it
// allocates, and a body with bytes left over after its last field is an
// error: a hostile or truncated body produces an error, never a panic or
// an outsized allocation.

// message is one protocol body.
type message interface {
	put(e *enc)
	get(d *dec)
}

// marshal encodes a body; nil encodes the empty body.
func marshal(m message) []byte {
	if m == nil {
		return nil
	}
	var e enc
	m.put(&e)
	return e.b
}

// unmarshal decodes a body into m (nil: the body must be empty).
func unmarshal(body []byte, m message) error {
	d := dec{b: body}
	if m != nil {
		m.get(&d)
	}
	return d.done()
}

type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) int(v int) { e.uvarint(uint64(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) bytes(p []byte) {
	e.int(len(p))
	e.b = append(e.b, p...)
}

func (e *enc) str(s string) {
	e.int(len(s))
	e.b = append(e.b, s...)
}

func (e *enc) strs(ss []string) {
	e.int(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) schema(s mring.Schema) { e.strs(s) }

type dec struct {
	b   []byte
	err error
}

// fail records the first error and stops decoding: every later read
// returns a zero value.
func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: bad message: "+format, args...)
	}
	d.b = nil
}

func (d *dec) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a non-negative integer that fits an int32.
func (d *dec) int() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads the length of a sequence whose elements encode in at least
// min bytes each, refusing one the remaining bytes cannot hold.
func (d *dec) count(min int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad boolean")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// bytes returns a length-prefixed byte string, aliasing the body; an
// empty one decodes to nil.
func (d *dec) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) str() string { return string(d.bytes()) }

func (d *dec) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *dec) schema() mring.Schema { return d.strs() }

// name reads the key of a sorted map entry: it must sort strictly after
// the previous key, so duplicate or reordered entries are refused.
func (d *dec) name(prev string, first bool) string {
	s := d.str()
	if !first && s <= prev {
		d.fail("map key %q out of order", s)
	}
	return s
}

// sortedKeys returns a map's keys in the order the codec writes them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
