package pool

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/mring"
)

// sizeFuzzRelation builds a relation from fuzz bytes. The first byte
// sets the arity (1 to 3); each column then takes a name length (a byte
// >= 200 asks for a long name) and a base kind. Every row follows: per
// value a byte whose low bits pick the kind — the column's base kind
// unless the high bit is set, which mixes kinds — then an 8-byte int or
// float, or a string (a length byte, >= 200 for a long one, then that
// many bytes); a row ends in a signed multiplicity byte.
func sizeFuzzRelation(data []byte) *mring.Relation {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		n := copy(w[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(w[:])
	}
	str := func() string {
		n := int(next())
		if n >= 200 {
			return strings.Repeat("s", (n-199)*100)
		}
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	arity := 1 + int(next())%3
	schema := make(mring.Schema, arity)
	base := make([]mring.Kind, arity)
	for i := range schema {
		schema[i] = "c" + str()
		base[i] = mring.Kind(next() % 3)
	}
	r := mring.NewRelation(schema)
	for len(data) > 0 {
		t := make(mring.Tuple, arity)
		for i := range t {
			k, sel := base[i], next()
			if sel&0x80 != 0 {
				k = mring.Kind(sel % 3)
			}
			switch k {
			case mring.KInt:
				t[i] = mring.Int(int64(word()))
			case mring.KFloat:
				t[i] = mring.Float(math.Float64frombits(word()))
			default:
				t[i] = mring.Str(str())
			}
		}
		r.Add(t, float64(int8(next())))
	}
	return r
}

// FuzzEncodedSize pins the simulator's computed shuffle size to the
// writer: over arbitrary relations — extreme and negative ints, NaN and
// signed-zero floats, empty and long strings and names, mixed-kind
// columns — EncodedSize equals the length of a Writer's encoding, which
// FromRelation's batch holds too, and that encoding reads back in place
// to the relation's rows in its order, each value with its kind and
// bits.
func FuzzEncodedSize(f *testing.F) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0}) // one int column, no rows
	// Two int columns: extreme, negative and small values.
	f.Add(cat([]byte{1, 1, 'a', 0, 1, 'b', 0},
		[]byte{0}, le(math.MaxInt64), []byte{0}, le(1<<63), []byte{1},
		[]byte{0}, le(^uint64(0)), []byte{0}, le(127), []byte{0xff},
		[]byte{0}, le(64), []byte{0}, le(0), []byte{3}))
	// A float column: NaN, -0, +0 and an infinity.
	f.Add(cat([]byte{0, 0, 1},
		[]byte{1}, le(math.Float64bits(math.NaN())), []byte{1},
		[]byte{1}, le(1<<63), []byte{2},
		[]byte{1}, le(0), []byte{1},
		[]byte{1}, le(math.Float64bits(math.Inf(-1))), []byte{5}))
	// A string column under a long name: empty, short and long strings.
	f.Add(cat([]byte{0, 250, 2},
		[]byte{2, 0, 1},
		[]byte{2, 3, 'x', 0, 'y', 1},
		[]byte{2, 255, 2},
		[]byte{2, 201, 1}))
	// Mixed kinds in one column: sized with a kind byte per value.
	f.Add(cat([]byte{0, 0, 0},
		[]byte{0}, le(5), []byte{1},
		[]byte{0x82, 1, 'z', 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := sizeFuzzRelation(data)
		var w Writer
		enc := w.Append(nil, r.Schema(), r)
		if b := FromRelation(r); !bytes.Equal(b.Encode(), enc) {
			t.Fatalf("FromRelation holds %x, a Writer writes %x", b.Encode(), enc)
		}
		if size := EncodedSize(r.Schema(), r); size != len(enc) {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes, on %v", size, len(enc), r)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		var want []mring.Tuple
		var mults []float64
		r.Foreach(func(tp mring.Tuple, m float64) { want, mults = append(want, tp.Clone()), append(mults, m) })
		i := 0
		dec.Foreach(func(tp mring.Tuple, m float64) {
			for j, v := range tp {
				w := want[i][j]
				if !v.Identical(w) {
					t.Fatalf("row %d column %d: decoded %v %v, relation holds %v %v", i, j, v.Kind(), v, w.Kind(), w)
				}
			}
			if math.Float64bits(m) != math.Float64bits(mults[i]) {
				t.Fatalf("row %d: multiplicity %v, want %v", i, m, mults[i])
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("decoded %d rows, relation holds %d", i, len(want))
		}
	})
}
