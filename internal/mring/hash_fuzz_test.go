package mring

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// fuzzValue decodes one Value from the fuzz input: a kind selector byte
// followed by 8 raw bytes (ints and float bit patterns share the same 8
// bytes so the fuzzer can mutate one into the other; strings take a short
// prefix of them).
func fuzzValue(data []byte) (Value, []byte, bool) {
	if len(data) < 9 {
		return Value{}, nil, false
	}
	sel, raw := data[0], data[1:9]
	w := binary.LittleEndian.Uint64(raw)
	rest := data[9:]
	switch sel % 4 {
	case 0:
		return Int(int64(w)), rest, true
	case 1:
		return Float(math.Float64frombits(w)), rest, true
	case 2:
		// Small ints double as int/float cross-kind collision bait.
		return Float(float64(int64(w) % 1024)), rest, true
	default:
		return Str(string(raw[:int(sel)%9])), rest, true
	}
}

func fuzzTuple(data []byte, arity int) (Tuple, []byte, bool) {
	t := make(Tuple, arity)
	for i := range t {
		var ok bool
		t[i], data, ok = fuzzValue(data)
		if !ok {
			return nil, nil, false
		}
	}
	return t, data, true
}

// exact is the exact value of a number that is not NaN.
func exact(v Value) *big.Float {
	if v.Kind() == KInt {
		return new(big.Float).SetInt64(v.n)
	}
	return new(big.Float).SetFloat64(v.AsFloat())
}

func isNaN(v Value) bool { return v.Kind() == KFloat && math.IsNaN(v.AsFloat()) }

// exactKeyEqual spells out the storage identity of two values without
// numKey: strings by their bytes, NaNs by their bits, and any other two
// numbers by exact value (so -0 is 0, Float(3) is Int(3), and no two
// distinct integers are one key).
func exactKeyEqual(a, b Value) bool {
	if a.Kind() == KString || b.Kind() == KString {
		return a.Kind() == b.Kind() && a.Text() == b.Text()
	}
	if isNaN(a) || isNaN(b) {
		return a.Identical(b)
	}
	return exact(a).Cmp(exact(b)) == 0
}

// TestNumbersCompareExactly holds KeyEqual, Equal, Less and Compare on
// every pair of edge numbers to their exact values: distinct integers
// past 2^53 and at the ends of int64 never meet, an integer and a float
// compare without rounding either, and a NaN equals and orders against
// nothing, yet is one key with itself.
func TestNumbersCompareExactly(t *testing.T) {
	vals := []Value{
		Int(0), Int(1 << 53), Int(1<<53 + 1), Int(-1<<53 - 1),
		Int(math.MaxInt64 - 1), Int(math.MaxInt64), Int(math.MinInt64), Int(math.MinInt64 + 1),
		Float(0), Float(math.Copysign(0, -1)), Float(0.5), Float(-0.5),
		Float(1 << 53), Float(-1 << 53), Float(1 << 63), Float(-1 << 63),
		Float(math.Nextafter(1<<63, 0)), Float(math.Nextafter(-1<<63, 0)),
		Float(1e300), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.KeyEqual(b), exactKeyEqual(a, b); got != want {
				t.Errorf("%#v.KeyEqual(%#v) = %v, want %v", a, b, got, want)
			}
			wantEq, wantLess := false, false
			if !isNaN(a) && !isNaN(b) {
				c := exact(a).Cmp(exact(b))
				wantEq, wantLess = c == 0, c < 0
				if got := a.Compare(b); got != c {
					t.Errorf("%#v.Compare(%#v) = %d, want %d", a, b, got, c)
				}
			}
			if got := a.Equal(b); got != wantEq {
				t.Errorf("%#v.Equal(%#v) = %v, want %v", a, b, got, wantEq)
			}
			if got := a.Less(b); got != wantLess {
				t.Errorf("%#v.Less(%#v) = %v, want %v", a, b, got, wantLess)
			}
		}
	}
}

// FuzzHashColsKeyEqual fuzzes the storage-identity contract between the
// canonical key encoding, KeyEqual/EqualAt, and Hash/HashCols: any two
// tuples with equal canonical keys must compare equal and hash equal,
// under the full tuple and under every column subset, and each column's
// KeyEqual must be exactKeyEqual. Aggregation keys groups by exactly these
// operations, so a violation would split or merge groups.
func FuzzHashColsKeyEqual(f *testing.F) {
	le := binary.LittleEndian
	b8 := func(w uint64) []byte {
		var b [8]byte
		le.PutUint64(b[:], w)
		return b[:]
	}
	i64 := func(i int64) []byte { return append([]byte{0}, b8(uint64(i))...) }
	f64 := func(x float64) []byte { return append([]byte{1}, b8(math.Float64bits(x))...) }
	pair := func(a, b []byte) { f.Add(append(append([]byte{0, 1}, a...), b...)) }
	// Seeds: identical int/float pairs, NaN, 2^53 neighbors, strings. An
	// input holds two tuples of the arity its first byte selects; pair
	// makes one-column tuples.
	f.Add(append([]byte{2, 0}, bytes.Repeat(i64(7), 6)...))
	pair(f64(math.NaN()), f64(math.NaN()))
	pair(i64(1<<53), i64(1<<53+1))
	f.Add(append([]byte{2, 3}, bytes.Repeat(append([]byte{7}, []byte("grpkey00")...), 6)...))
	// Integers past float64's exact range, the ends of int64, and an
	// integer against the float of the same or the next value.
	pair(i64(1<<53-1), i64(1<<53+1))
	pair(i64(-1<<53-1), i64(-1<<53))
	pair(i64(-1<<53+1), i64(-1<<53-1))
	pair(i64(math.MinInt64), i64(math.MinInt64+1))
	pair(i64(math.MinInt64), f64(-1<<63))
	pair(i64(1<<53), f64(1<<53))
	pair(i64(-1<<53), f64(-1<<53))
	pair(i64(math.MaxInt64), f64(1<<63))
	pair(i64(math.MaxInt64-1), i64(math.MaxInt64))
	pair(f64(1<<63), f64(1<<63))
	pair(f64(-1<<63), f64(-1<<63))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := int(data[0])%3 + 1
		subsetSel := data[1]
		t1, rest, ok := fuzzTuple(data[2:], arity)
		if !ok {
			return
		}
		t2, _, ok := fuzzTuple(rest, arity)
		if !ok {
			return
		}

		for i := range t1 {
			if got, want := t1[i].KeyEqual(t2[i]), exactKeyEqual(t1[i], t2[i]); got != want {
				t.Fatalf("%v.KeyEqual(%v)=%v, want %v", t1[i], t2[i], got, want)
			}
		}

		// Full-tuple contract: KeyEqual ⇔ canonical keys equal, and equal
		// keys hash equal.
		keysEq := string(t1.EncodeKey(nil)) == string(t2.EncodeKey(nil))
		if got := t1.KeyEqual(t2); got != keysEq {
			t.Fatalf("KeyEqual=%v but key-encoding equality=%v\n t1=%v\n t2=%v", got, keysEq, t1, t2)
		}
		if keysEq && t1.Hash() != t2.Hash() {
			t.Fatalf("equal canonical keys hash differently\n t1=%v (%#x)\n t2=%v (%#x)",
				t1, t1.Hash(), t2, t2.Hash())
		}

		// Column-subset contract, for the subset drawn from the selector:
		// HashCols must equal the projection's Hash, and EqualAt must
		// agree with the projections' key equality — the exact operations
		// group tables and secondary indexes key by.
		var pos []int
		for i := 0; i < arity; i++ {
			if subsetSel&(1<<i) != 0 {
				pos = append(pos, i)
			}
		}
		p1, p2 := t1.Project(pos), t2.Project(pos)
		if t1.HashCols(pos) != p1.Hash() {
			t.Fatalf("HashCols(%v) != Project(%v).Hash() for %v", pos, pos, t1)
		}
		projEq := string(p1.EncodeKey(nil)) == string(p2.EncodeKey(nil))
		if got := t1.EqualAt(pos, p2); got != projEq {
			t.Fatalf("EqualAt(%v)=%v but projected key equality=%v\n t1=%v\n t2=%v", pos, got, projEq, t1, t2)
		}
		if projEq && t1.HashCols(pos) != t2.HashCols(pos) {
			t.Fatalf("equal projected keys hash differently under HashCols(%v)\n t1=%v\n t2=%v", pos, t1, t2)
		}
	})
}
