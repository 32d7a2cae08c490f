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
func fuzzSeedBatches() []*ColBatch {
	empty := NewColBatch(mring.Schema{"a"}, []mring.Kind{mring.KInt})
	ints := NewColBatch(mring.Schema{"a", "b"}, []mring.Kind{mring.KInt, mring.KInt})
	ints.Append(mring.Tuple{mring.Int(-1), mring.Int(1 << 60)}, 2)
	ints.Append(mring.Tuple{mring.Int(0), mring.Int(-(1 << 53))}, -0.5)
	mixed := NewColBatch(mring.Schema{"i", "f", "s"},
		[]mring.Kind{mring.KInt, mring.KFloat, mring.KString})
	mixed.Append(mring.Tuple{mring.Int(7), mring.Float(math.NaN()), mring.Str("")}, 1)
	mixed.Append(mring.Tuple{mring.Int(-7), mring.Float(math.Inf(-1)), mring.Str("x\x00y")}, 3.25)
	tagged := NewColBatch(mring.Schema{"k", "n"}, []mring.Kind{Mixed, mring.KInt})
	tagged.Append(mring.Tuple{mring.Int(2), mring.Int(1)}, 1)
	tagged.Append(mring.Tuple{mring.Float(math.NaN()), mring.Int(2)}, -1)
	tagged.Append(mring.Tuple{mring.Str(""), mring.Int(3)}, 0.5)
	return []*ColBatch{empty, ints, mixed, tagged}
}

func batchesEqual(a, b *ColBatch) bool {
	if !a.Schema.Equal(b.Schema) || a.Len() != b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		ca, cb := &a.Cols[i], &b.Cols[i]
		if ca.Kind != cb.Kind || ca.Len() != cb.Len() {
			return false
		}
		for j := 0; j < ca.Len(); j++ {
			va, vb := ca.value(j), cb.value(j)
			// Bitwise: NaNs round-trip, -0 stays -0.
			if va.K != vb.K || va.I != vb.I || va.S != vb.S ||
				math.Float64bits(va.F) != math.Float64bits(vb.F) {
				return false
			}
		}
	}
	for i := range a.Mults {
		if math.Float64bits(a.Mults[i]) != math.Float64bits(b.Mults[i]) {
			return false
		}
	}
	return true
}

// FuzzColBatchDecode feeds arbitrary bytes to the shuffle-wire decoder:
// Decode must return a batch or an error, never panic or over-allocate,
// and any batch it accepts must re-encode and re-decode to the same
// contents (the decoder's output is always a valid wire image).
func FuzzColBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, b := range fuzzSeedBatches() {
		f.Add(b.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		enc := b.Encode()
		b2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if !batchesEqual(b, b2) {
			t.Fatalf("re-encode round-trip diverged:\n first: %+v\n again: %+v", b, b2)
		}
	})
}

// TestEncodeDecodeRoundTrip is the deterministic counterpart of the fuzz
// round-trip property, byte-exact on the wire image too.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, b := range fuzzSeedBatches() {
		enc := b.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode): %v", err)
		}
		if !batchesEqual(b, got) {
			t.Fatalf("round trip diverged:\n in:  %+v\n out: %+v", b, got)
		}
		if !bytes.Equal(got.Encode(), enc) {
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
