package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mring"
)

// TestRoundTrip pins that every field decodes to what was encoded, in
// order, with nothing left over.
func TestRoundTrip(t *testing.T) {
	tuple := mring.Tuple{mring.Int(-5), mring.Float(math.Inf(-1)), mring.Str("s"), mring.Int(1 << 40), mring.Str("")}
	var e Enc
	e.Byte(7)
	e.Uvarint(math.MaxUint64)
	e.Varint(math.MinInt64)
	e.Int(300)
	e.Bool(true)
	e.Float(-0.25)
	e.Bytes([]byte{1, 2})
	e.Bytes(nil)
	e.Str("name")
	e.Strs([]string{"a", "b"})
	e.Value(mring.Str("v"))
	e.Tuple(tuple)
	e.Varint(-1)
	e.Varint(64)
	e.Float(1)
	e.Float(2)

	d := NewDec(e.B)
	ints, flts := make([]int64, 2), make([]float64, 2)
	got := []any{d.Byte(), d.Uvarint(), d.Varint(), d.Int(), d.Bool(), d.Float(), d.Bytes(), d.Bytes(),
		d.Str(), d.Strs()}
	gotValue := d.Value()
	gotTuple := make(mring.Tuple, len(tuple))
	d.Tuple(gotTuple)
	d.Varints(ints)
	d.Floats(flts)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	want := []any{byte(7), uint64(math.MaxUint64), int64(math.MinInt64), 300, true, -0.25, []byte{1, 2}, []byte(nil),
		"name", []string{"a", "b"}}
	if !reflect.DeepEqual(got, want) || !gotValue.Identical(mring.Str("v")) {
		t.Fatalf("got %v %v, want %v \"v\"", got, gotValue, want)
	}
	if !identical(gotTuple, tuple) || !reflect.DeepEqual(ints, []int64{-1, 64}) || !reflect.DeepEqual(flts, []float64{1, 2}) {
		t.Fatalf("bulk reads: %v %v %v", gotTuple, ints, flts)
	}
}

// identical reports whether two tuples hold Identical values.
func identical(a, b mring.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Identical(b[i]) {
			return false
		}
	}
	return true
}

// TestDecRefusesMalformed pins the refusals every format inherits: each
// input fails with an error naming the fault, and the error sticks.
func TestDecRefusesMalformed(t *testing.T) {
	for name, c := range map[string]struct {
		in   []byte
		read func(d *Dec)
		want string
	}{
		"trailing":       {[]byte{1, 2}, func(d *Dec) { d.Byte() }, "trailing"},
		"empty":          {nil, func(d *Dec) { d.Byte() }, "truncated"},
		"varint":         {[]byte{0x80}, func(d *Dec) { d.Uvarint() }, "truncated varint"},
		"overlong":       {[]byte{0x81, 0x00}, func(d *Dec) { d.Uvarint() }, "overlong"},
		"overlong bulk":  {[]byte{0x80, 0x00}, func(d *Dec) { d.Varints(make([]int64, 1)) }, "overlong"},
		"overflow":       {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(d *Dec) { d.Uvarint() }, "overflowing"},
		"int range":      {[]byte{0x80, 0x80, 0x80, 0x80, 0x10}, func(d *Dec) { d.Int() }, "out of range"},
		"count":          {[]byte{3, 0, 0}, func(d *Dec) { d.Count(1) }, "exceeds"},
		"string":         {[]byte{5, 'a'}, func(d *Dec) { d.Str() }, "exceeds"},
		"boolean":        {[]byte{2}, func(d *Dec) { d.Bool() }, "bad boolean"},
		"float":          {[]byte{1, 2, 3}, func(d *Dec) { d.Float() }, "truncated float"},
		"floats":         {make([]byte, 15), func(d *Dec) { d.Floats(make([]float64, 2)) }, "truncated float"},
		"kind":           {[]byte{3, 0}, func(d *Dec) { d.Value() }, "unknown value kind"},
		"value int":      {[]byte{byte(mring.KInt)}, func(d *Dec) { d.Value() }, "truncated varint"},
		"value float":    {[]byte{byte(mring.KFloat), 0, 0}, func(d *Dec) { d.Value() }, "truncated float"},
		"value string":   {[]byte{byte(mring.KString), 4, 'a'}, func(d *Dec) { d.Value() }, "exceeds"},
		"tuple tail":     {[]byte{byte(mring.KInt), 2, byte(mring.KInt)}, func(d *Dec) { d.Tuple(make(mring.Tuple, 2)) }, "truncated varint"},
		"key order":      {[]byte{2, 1, 'b', 0, 1, 'a', 0}, func(d *Dec) { GetMap(d, 1, (*Dec).Bool) }, "out of order"},
		"duplicate keys": {[]byte{2, 1, 'a', 0, 1, 'a', 1}, func(d *Dec) { GetMap(d, 1, (*Dec).Bool) }, "out of order"},
	} {
		d := NewDec(c.in)
		c.read(&d)
		err := d.Done()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
			continue
		}
		if v := d.Uvarint(); v != 0 || d.Err() != err {
			t.Errorf("%s: read after the error gave %d, error %v", name, v, d.Err())
		}
	}
}

// TestMapRoundTrip pins that maps are written in sorted key order, so
// two equal maps encode identically, and decode to what was written.
func TestMapRoundTrip(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	var e Enc
	PutMap(&e, m, (*Enc).Int)
	var want Enc
	for _, k := range []string{"a", "b", "c"} {
		want.Str(k)
		want.Int(m[k])
	}
	if string(e.B) != string(append([]byte{3}, want.B...)) {
		t.Fatalf("map encoding %q is not in key order", e.B)
	}
	d := NewDec(e.B)
	if got := GetMap(&d, 2, (*Dec).Int); d.Done() != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("got %v, %v", got, d.Err())
	}
}
