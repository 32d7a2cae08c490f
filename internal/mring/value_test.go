package mring_test

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/mring"
	"repro/internal/pool"
	"repro/internal/wire"
)

// edgeFloats are floats whose bits a round trip through a Value must
// keep exactly: a NaN with a payload, -0, the infinities, the smallest
// subnormal, 2^63 (past every int64) and 0.1 (not a binary fraction).
var edgeFloats = []float64{
	math.Float64frombits(0x7FF8_0000_DEAD_BEEF),
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	1 << 63,
	0.1,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestValueLayout pins the Value layout, a pointer word and an int64,
// neither of them exported, and checks that every constructor reports
// its kind, that strings keep their bytes and compare by them wherever
// they are stored, that Values cannot be compared with ==, and that every
// edge float keeps its bits through Float/AsFloat, the wire encoding and
// the columnar batch encoding.
func TestValueLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(mring.Value{}), 8+unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want %d", got, want)
	}
	if reflect.TypeOf(mring.Value{}).Comparable() {
		t.Fatal("Value is comparable; == would compare string addresses")
	}
	// A string's length word bounds what Text reads through its pointer,
	// so no code outside the package may write either word.
	for _, f := range reflect.VisibleFields(reflect.TypeOf(mring.Value{})) {
		if f.IsExported() {
			t.Errorf("Value has the exported field %s", f.Name)
		}
	}
	for _, c := range []struct {
		v    mring.Value
		want mring.Kind
	}{
		{mring.Value{}, mring.KInt},
		{mring.Int(-7), mring.KInt},
		{mring.Float(0), mring.KFloat},
		{mring.Float(math.NaN()), mring.KFloat},
		{mring.Str(""), mring.KString},
		{mring.Str("x"), mring.KString},
	} {
		if got := c.v.Kind(); got != c.want {
			t.Errorf("%v.Kind() = %v, want %v", c.v, got, c.want)
		}
	}

	long := strconv.Itoa(1234567890) + "-suffix"
	var e wire.Enc
	e.Tuple(mring.Tuple{mring.Str(long)})
	d := wire.NewDec(e.B)
	decoded := make(mring.Tuple, 1)
	d.Tuple(decoded)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v    mring.Value
		want string
	}{
		{mring.Str(long[3:9]), "456789"},
		{mring.Str(""), ""},
		{mring.Str(long[:0]), ""},
		{mring.Str("literal"), "literal"},
		{decoded[0], long},
		{mring.Int(5), ""},
		{mring.Float(5), ""},
	} {
		if got := c.v.Text(); got != c.want {
			t.Errorf("%v.Text() = %q, want %q", c.v, got, c.want)
		}
	}

	x, y := mring.Str(long), mring.Str(string([]byte(long)))
	if !x.KeyEqual(y) || !x.Equal(y) || !x.Identical(y) || x.Compare(y) != 0 ||
		(mring.Tuple{x}).Hash() != (mring.Tuple{y}).Hash() {
		t.Errorf("equal strings in different backing arrays are not one value")
	}

	for _, f := range edgeFloats {
		if got := mring.Float(f).AsFloat(); !sameBits(got, f) {
			t.Errorf("Float(%#x).AsFloat() = %#x", math.Float64bits(f), math.Float64bits(got))
		}
	}

	in := make(mring.Tuple, len(edgeFloats))
	for i, f := range edgeFloats {
		in[i] = mring.Float(f)
	}
	e = wire.Enc{}
	e.Tuple(in)
	d = wire.NewDec(e.B)
	out := make(mring.Tuple, len(in))
	d.Tuple(out)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for i, f := range edgeFloats {
		if out[i].Kind() != mring.KFloat || !sameBits(out[i].AsFloat(), f) {
			t.Errorf("wire round trip of %#x gave %v", math.Float64bits(f), out[i])
		}
	}

	// One row per edge float: a float column, written bare, and a column
	// that mixes in an integer, written kind by kind.
	var rows rowList
	for _, f := range edgeFloats {
		rows = append(rows, mring.Tuple{mring.Float(f), mring.Float(f)})
	}
	rows = append(rows, mring.Tuple{mring.Float(1), mring.Int(1)})
	var w pool.Writer
	b, err := pool.Decode(w.Append(nil, mring.Schema{"f", "mixed"}, rows))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind(0) != mring.KFloat || b.Kind(1) != pool.Mixed {
		t.Fatalf("column kinds %v, %v; want float, mixed", b.Kind(0), b.Kind(1))
	}
	i := 0
	b.Foreach(func(got mring.Tuple, _ float64) {
		for j := range got {
			if !got[j].Identical(rows[i][j]) {
				t.Errorf("columnar round trip of row %d column %d: got %v, want %v", i, j, got[j], rows[i][j])
			}
		}
		i++
	})
	if i != len(rows) {
		t.Fatalf("columnar round trip gave %d rows, want %d", i, len(rows))
	}
}

type rowList []mring.Tuple

func (r rowList) Len() int { return len(r) }
func (r rowList) Foreach(f func(mring.Tuple, float64)) {
	for _, t := range r {
		f(t, 1)
	}
}

// TestTupleHashPinned pins Tuple.Hash on the edges of the numeric
// canonicalization, so a change to how values hash (and with it bucket
// order, worker placement and checkpoint layout) cannot pass unseen.
// Every integer hashes as itself, an integral float in [-2^63, 2^63) as
// its integer (Float(3) as Int(3), -0 as 0), and any other float as its
// bits (Float(2^63) is not Int(MaxInt64)). No row depends on the CPU.
func TestTupleHashPinned(t *testing.T) {
	pins := []struct {
		name string
		t    mring.Tuple
		want uint64
	}{
		{"Int(0)", mring.Tuple{mring.Int(0)}, 0x232e6081017cef1b},
		{"Int(1)", mring.Tuple{mring.Int(1)}, 0x83ab70a1cb8ad6a0},
		{"Int(-1)", mring.Tuple{mring.Int(-1)}, 0x8649fa8ebd069ead},
		{"Int(3)", mring.Tuple{mring.Int(3)}, 0x28243033307ed3bb},
		{"Int(2^53)", mring.Tuple{mring.Int(1 << 53)}, 0xc3cf4bcb3693ce84},
		{"Int(-2^53)", mring.Tuple{mring.Int(-1 << 53)}, 0xa2f77470f976d5f6},
		{"Int(2^53+1)", mring.Tuple{mring.Int(1<<53 + 1)}, 0x6626158dabef74a5},
		{"Int(-2^53-1)", mring.Tuple{mring.Int(-1<<53 - 1)}, 0xc1783f51198e799f},
		{"Int(MinInt64)", mring.Tuple{mring.Int(math.MinInt64)}, 0x2a52be3c38360197},
		{"Int(MaxInt64)", mring.Tuple{mring.Int(math.MaxInt64)}, 0x52606a06413debbf},
		{"Float(3)", mring.Tuple{mring.Float(3)}, 0x28243033307ed3bb},
		{"Float(-0)", mring.Tuple{mring.Float(math.Copysign(0, -1))}, 0x232e6081017cef1b},
		{"Float(NaN)", mring.Tuple{mring.Float(math.NaN())}, 0x3b35c474956f082d},
		{"Float(+Inf)", mring.Tuple{mring.Float(math.Inf(1))}, 0xe296442d3300e36c},
		{"Float(-Inf)", mring.Tuple{mring.Float(math.Inf(-1))}, 0xe0bd0559d2b4cac4},
		{"Float(2^63)", mring.Tuple{mring.Float(1 << 63)}, 0x1252c8d15e293955},
		{"Float(0.1)", mring.Tuple{mring.Float(0.1)}, 0x9ff5b59e5f7b5d80},
		{`Str("")`, mring.Tuple{mring.Str("")}, 0x0a682b32d3282c90},
		{`Str("a")`, mring.Tuple{mring.Str("a")}, 0xf0f9109cefe6181d},
		{`Str("abcdefgh")`, mring.Tuple{mring.Str("abcdefgh")}, 0x8f0b609b29f6f4c7},
		{`Str("abcdefghi")`, mring.Tuple{mring.Str("abcdefghi")}, 0xfd0b42f91348664d},
		{`(Int(7), Float(2.5), Str("k"))`, mring.Tuple{mring.Int(7), mring.Float(2.5), mring.Str("k")}, 0x68207d09e7317796},
	}
	for _, p := range pins {
		if got := p.t.Hash(); got != p.want {
			t.Errorf("%s.Hash() = %#016x, want %#016x", p.name, got, p.want)
		}
	}
}

// TestAsIntRange pins AsInt on floats at and past the int64 range: it
// truncates toward zero inside, saturates outside, and maps NaN to 0.
func TestAsIntRange(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{2.9, 2},
		{-2.9, -2},
		{math.Copysign(0, -1), 0},
		{0x1p63 - 1024, math.MaxInt64 - 1023},
		{0x1p63, math.MaxInt64},
		{1e300, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{-0x1p63, math.MinInt64},
		{-0x1p64, math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{math.NaN(), 0},
	} {
		if got := mring.Float(c.f).AsInt(); got != c.want {
			t.Errorf("Float(%g).AsInt() = %d, want %d", c.f, got, c.want)
		}
	}
	for s, want := range map[string]int64{"42": 42, "-7": -7, "99999999999999999999": math.MaxInt64, "3.5": 0, "abc": 0} {
		if got := mring.Str(s).AsInt(); got != want {
			t.Errorf("Str(%q).AsInt() = %d, want %d", s, got, want)
		}
	}
}
