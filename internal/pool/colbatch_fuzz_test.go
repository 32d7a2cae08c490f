package pool

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mring"
)

// fuzzSeedBatches are valid wire images seeding the corpus: empty and
// single-kind batches, typed columns of every kind, and a Mixed column,
// with adversarial values.
func fuzzSeedBatches(t testing.TB) []*ColBatch {
	empty := write(t, mring.Schema{"a"}, rowList{})
	ints := write(t, mring.Schema{"a", "b"}, rowList{
		{mring.Tuple{mring.Int(-1), mring.Int(1 << 60)}, 2},
		{mring.Tuple{mring.Int(0), mring.Int(-(1 << 53))}, -0.5},
	})
	mixed := write(t, mring.Schema{"i", "f", "s"}, rowList{
		{mring.Tuple{mring.Int(7), mring.Float(math.NaN()), mring.Str("")}, 1},
		{mring.Tuple{mring.Int(-7), mring.Float(math.Inf(-1)), mring.Str("x\x00y")}, 3.25},
	})
	tagged := write(t, mring.Schema{"k", "n"}, rowList{
		{mring.Tuple{mring.Int(2), mring.Int(1)}, 1},
		{mring.Tuple{mring.Float(math.NaN()), mring.Int(2)}, -1},
		{mring.Tuple{mring.Str(""), mring.Int(3)}, 0.5},
	})
	return []*ColBatch{empty, ints, mixed, tagged}
}

// sameValue reports whether two values have the same kind and bits: NaNs
// compare equal, -0 differs from +0.
func sameValue(a, b mring.Value) bool {
	return a == b
}

// rowsEqual reports whether b holds want's rows in want's order, each
// value and multiplicity with the same kind and bits.
func rowsEqual(b Rows, want rowList) bool {
	if b.Len() != len(want) {
		return false
	}
	i, ok := 0, true
	b.Foreach(func(t mring.Tuple, m float64) {
		w := want[i]
		ok = ok && len(t) == len(w.t) && math.Float64bits(m) == math.Float64bits(w.m)
		for j := range t {
			ok = ok && sameValue(t[j], w.t[j])
		}
		i++
	})
	return ok && i == len(want)
}

// collect copies a batch's rows out, in the order visit enumerates them.
func collect(visit func(func(mring.Tuple, float64))) rowList {
	var l rowList
	visit(func(t mring.Tuple, m float64) { l = append(l, row{t.Clone(), m}) })
	return l
}

// batchesEqual reports whether two batches have the same schema, column
// kinds and rows.
func batchesEqual(a, b *ColBatch) bool {
	if !a.Schema.Equal(b.Schema) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Schema {
		if a.Kind(i) != b.Kind(i) {
			return false
		}
	}
	return rowsEqual(b, collect(a.Foreach))
}

// FuzzColBatchDecode feeds arbitrary bytes to the in-place reader:
// Decode must return a batch or an error, never panic or over-allocate.
// Any batch it accepts is canonical: a Writer writes exactly the same
// bytes for its rows.
func FuzzColBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, b := range fuzzSeedBatches(f) {
		f.Add(b.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		var w Writer
		if enc := w.Append(nil, b.Schema, b); !bytes.Equal(enc, data) {
			t.Fatalf("accepted batch re-encodes differently:\n input: %x\n again: %x", data, enc)
		}
	})
}

// TestEncodeDecodeRoundTrip is the deterministic counterpart of the fuzz
// round-trip property, byte-exact on the wire image too.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, b := range fuzzSeedBatches(t) {
		enc := b.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode): %v", err)
		}
		if !batchesEqual(b, got) {
			t.Fatalf("round trip diverged:\n in:  %+v\n out: %+v", b, got)
		}
		var w Writer
		if !bytes.Equal(w.Append(nil, got.Schema, got), enc) {
			t.Fatalf("re-encode is not byte-identical")
		}
	}
}

// TestDecodeRejectsHostileCounts pins the allocation guards: headers
// claiming more columns, rows, or string bytes than the input holds are
// rejected before any large allocation.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	cases := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // nc = 2^63
		{0x01, 0xff, 0xff, 0xff, 0x07, 0x61},                         // name length huge
		{0x01, 0x01, 0x61, 0x05},                                     // kind byte 5 invalid
		// one int column "a", row count 2^62.
		{0x01, 0x01, 0x61, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f},
		// one string column "a", one row, string length 2^62.
		{0x01, 0x01, 0x61, 0x02, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f,
			0, 0, 0, 0, 0, 0, 0, 0},
	}
	for i, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("case %d: hostile input accepted", i)
		}
	}
}

// TestDecodeRefusesNonCanonical pins that the reader accepts only what a
// Writer writes: a Mixed column whose values share one kind, a typed
// column in an empty batch, and an overlong varint are each refused,
// while their canonical forms read.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	mult := []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f} // multiplicity 1
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, c := range []struct {
		name string
		buf  []byte
		ok   bool
	}{
		{"int column", cat([]byte{0x01, 0x01, 'a', 0x00, 0x01, 0x04}, mult), true},
		{"one-kind Mixed column", cat([]byte{0x01, 0x01, 'a', 0x03, 0x01, 0x00, 0x04}, mult), false},
		{"overlong varint", cat([]byte{0x01, 0x01, 'a', 0x00, 0x01, 0x84, 0x00}, mult), false},
		{"empty batch", []byte{0x01, 0x01, 'a', 0x00, 0x00}, true},
		{"empty batch, float column", []byte{0x01, 0x01, 'a', 0x01, 0x00}, false},
		{"empty batch, Mixed column", []byte{0x01, 0x01, 'a', 0x03, 0x00}, false},
	} {
		if _, err := Decode(c.buf); (err == nil) != c.ok {
			t.Errorf("%s: Decode error %v, want accepted = %v", c.name, err, c.ok)
		}
	}
}
