// Package wire is the module's one byte codec. Every format that crosses
// a process boundary or lands on disk — relation payloads, WAL records,
// the cluster's control messages and deploy blobs, checkpoints and
// changefeed messages — is written with Enc and read with
// Dec, as a flat sequence of unsigned varints (counts, lengths, ids),
// zig-zag varints (signed integers), single bytes (kinds, tags,
// booleans), little-endian float64s and length-prefixed byte strings.
// Maps travel in sorted key order, so an encoding is a function of the
// value alone.
//
// Dec checks every count against the bytes left before its caller
// allocates, keeps the first error and returns zero values after it, and
// Done refuses bytes left over after the last field: a hostile or
// truncated input produces an error, never a panic or an outsized
// allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/mring"
)

// Enc appends fields to B. Each writer has a Dec reader of the same
// name.
type Enc struct{ B []byte }

// maxKept bounds the buffer Reset keeps for the next message.
const maxKept = 64 << 10

// Reset empties B for the next message. It keeps B's capacity, unless
// that exceeds 64 KiB, so an encoder reused for every message sent on a
// connection allocates nothing once warm, and one bulk message, such as
// a warm start's, does not pin its size.
func (e *Enc) Reset() {
	if cap(e.B) > maxKept {
		e.B = nil
	}
	e.B = e.B[:0]
}

func (e *Enc) Byte(v byte) { e.B = append(e.B, v) }

func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

func (e *Enc) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Varints writes each of vs as Varint does.
func (e *Enc) Varints(vs []int64) {
	b := e.B
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	e.B = b
}

// Int writes a non-negative integer.
func (e *Enc) Int(v int) { e.Uvarint(uint64(v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

func (e *Enc) Float(v float64) { e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(v)) }

// Floats writes each of vs as Float does.
func (e *Enc) Floats(vs []float64) {
	b := e.B
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	e.B = b
}

func (e *Enc) Bytes(p []byte) {
	e.Int(len(p))
	e.B = append(e.B, p...)
}

func (e *Enc) Str(s string) {
	e.Int(len(s))
	e.B = append(e.B, s...)
}

func (e *Enc) Strs(ss []string) {
	e.Int(len(ss))
	for _, s := range ss {
		e.Str(s)
	}
}

// Value writes a tuple value as its kind byte and then the value: a
// zig-zag varint, a float64, or a length-prefixed string.
func (e *Enc) Value(v mring.Value) { e.Tuple(mring.Tuple{v}) }

// Tuple writes each of t's values as Value does.
func (e *Enc) Tuple(t mring.Tuple) {
	b := e.B
	for _, v := range t {
		b = append(b, byte(v.Kind()))
		switch v.Kind() {
		case mring.KInt:
			b = binary.AppendVarint(b, v.AsInt())
		case mring.KFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
		default:
			b = binary.AppendUvarint(b, uint64(len(v.Text())))
			b = append(b, v.Text()...)
		}
	}
	e.B = b
}

// Dec reads fields from an input in the order Enc wrote them.
type Dec struct {
	b   []byte
	n   int // length of the whole input, for error offsets
	err error
}

// NewDec returns a decoder over b. Byte strings it returns alias b.
func NewDec(b []byte) Dec { return Dec{b: b, n: len(b)} }

// Fail records the first error and stops decoding: every later read
// returns a zero value. Callers use it for their own semantic checks, so
// one sticky error reports the first thing wrong with an input.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: %s", d.n-len(d.b), fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// Err returns the first error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of bytes left.
func (d *Dec) Len() int { return len(d.b) }

// Offset returns the number of bytes read so far.
func (d *Dec) Offset() int { return d.n - len(d.b) }

// Done returns the first error, or an error if bytes are left over.
func (d *Dec) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *Dec) Byte() byte {
	if len(d.b) == 0 {
		d.Fail("truncated input")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// canonical reports whether binary.Uvarint read a varint of n bytes from
// the front of b without error, and in its shortest form: an overlong
// encoding ends in a zero byte. Refusing overlong forms keeps every
// accepted input canonical — it re-encodes to the same bytes. Callers
// call binary.Uvarint themselves so that it inlines into the hot loops.
func canonical(b []byte, n int) bool { return n == 1 || n > 1 && b[n-1] != 0 }

// badVarint fails on the varint canonical refused at the front of the
// input.
func (d *Dec) badVarint() {
	if _, n := binary.Uvarint(d.b); n == 0 {
		d.Fail("truncated varint")
	} else {
		d.Fail("overlong or overflowing varint")
	}
}

func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if !canonical(d.b, n) {
		d.badVarint()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Varints fills dst with consecutive zig-zag varints.
func (d *Dec) Varints(dst []int64) {
	b := d.b
	for i := range dst {
		u, n := binary.Uvarint(b)
		if !canonical(b, n) {
			d.b = b
			d.badVarint()
			return
		}
		dst[i] = int64(u>>1) ^ -int64(u&1)
		b = b[n:]
	}
	d.b = b
}

// Int reads a non-negative integer that fits an int32.
func (d *Dec) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads the length of a sequence whose elements encode in at least
// min bytes each, refusing one the remaining bytes cannot hold.
func (d *Dec) Count(min int) int {
	v := d.Uvarint()
	if v > uint64(len(d.b)/min) {
		d.Fail("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *Dec) Bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.Fail("bad boolean")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *Dec) Float() float64 {
	var v [1]float64
	d.Floats(v[:])
	return v[0]
}

// Floats fills dst with consecutive float64s.
func (d *Dec) Floats(dst []float64) {
	if len(d.b)/8 < len(dst) {
		d.Fail("truncated float")
		return
	}
	b := d.b
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	d.b = b[8*len(dst):]
}

// Bytes returns a length-prefixed byte string, aliasing the input; an
// empty one decodes to nil.
func (d *Dec) Bytes() []byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *Dec) Str() string {
	n, w := binary.Uvarint(d.b)
	if !canonical(d.b, w) || n > uint64(len(d.b)-w) {
		return string(d.Bytes()) // records the error
	}
	s := string(d.b[w : w+int(n)])
	d.b = d.b[w+int(n):]
	return s
}

func (d *Dec) Strs() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.Str()
	}
	return ss
}

func (d *Dec) Schema() mring.Schema { return d.Strs() }

// Kind reads a value-kind byte, refusing an unknown kind.
func (d *Dec) Kind() mring.Kind {
	k := mring.Kind(d.Byte())
	if k > mring.KString {
		d.Fail("unknown value kind %d", k)
		return mring.KInt
	}
	return k
}

// Value reads a tuple value written by Enc.Value.
func (d *Dec) Value() mring.Value {
	var v [1]mring.Value
	d.Tuple(v[:])
	return v[0]
}

// Tuple fills t with consecutive values written by Enc.Value. Well-formed
// values decode inline; the first malformed one goes through the checked
// reads, which record the error.
func (d *Dec) Tuple(t mring.Tuple) {
	b := d.b
	for i := range t {
		if len(b) > 1 {
			switch mring.Kind(b[0]) {
			case mring.KInt:
				if u, n := binary.Uvarint(b[1:]); canonical(b[1:], n) {
					t[i] = mring.Int(int64(u>>1) ^ -int64(u&1))
					b = b[1+n:]
					continue
				}
			case mring.KFloat:
				if len(b) >= 9 {
					t[i] = mring.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:])))
					b = b[9:]
					continue
				}
			case mring.KString:
				if n, w := binary.Uvarint(b[1:]); canonical(b[1:], w) && n <= uint64(len(b)-1-w) {
					t[i] = mring.Str(string(b[1+w : 1+w+int(n)]))
					b = b[1+w+int(n):]
					continue
				}
			}
		}
		d.b = b
		switch d.Kind() {
		case mring.KInt:
			d.Varint()
		case mring.KFloat:
			d.Float()
		default:
			d.Bytes()
		}
		return
	}
	d.b = b
}

// Skip checks and passes over n consecutive values of kind k written
// bare — as Varint, Float or Str write them — without decoding them.
func (d *Dec) Skip(k mring.Kind, n int) {
	b := d.b
	switch k {
	case mring.KInt:
		for i := 0; i < n; i++ {
			_, w := binary.Uvarint(b)
			if !canonical(b, w) {
				d.b = b
				d.badVarint()
				return
			}
			b = b[w:]
		}
	case mring.KFloat:
		if len(b)/8 < n {
			d.Fail("truncated float")
			return
		}
		b = b[8*n:]
	default:
		for i := 0; i < n; i++ {
			l, w := binary.Uvarint(b)
			if !canonical(b, w) || l > uint64(len(b)-w) {
				d.b = b
				d.Bytes() // records the error
				return
			}
			b = b[w+int(l):]
		}
	}
	d.b = b
}

// SkipValues checks and passes over n consecutive values written by
// Enc.Value, and reports whether they differ in kind.
func (d *Dec) SkipValues(n int) (mixed bool) {
	var first mring.Kind
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Kind()
		if i == 0 {
			first = k
		}
		mixed = mixed || k != first
		d.Skip(k, 1)
	}
	return mixed
}

// PutMap writes m in sorted key order: the entry count, then each key
// and its value as put writes it.
func PutMap[V any](e *Enc, m map[string]V, put func(*Enc, V)) {
	e.Int(len(m))
	for _, k := range SortedKeys(m) {
		e.Str(k)
		put(e, m[k])
	}
}

// GetMap reads a map written by PutMap whose entries encode in at least
// min bytes each. Keys must sort strictly after their predecessor, so
// duplicate or reordered entries are refused. An empty map decodes to
// nil.
func GetMap[V any](d *Dec, min int, get func(*Dec) V) map[string]V {
	n := d.Count(min)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	var prev string
	for i := 0; i < n; i++ {
		k := d.Str()
		if i > 0 && k <= prev {
			d.Fail("map key %q out of order", k)
		}
		m[k], prev = get(d), k
	}
	return m
}

// SortedKeys returns a map's keys in the order PutMap writes them.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
