package net

import (
	"bytes"
	"testing"

	"repro/internal/mring"
)

// legacyRowPayload is a tag-0x01 row-format payload, the form earlier
// builds wrote for a relation whose columns mix value kinds. These bytes
// were generated by EncodeRelationPlain at the last build that wrote the
// row format, over a relation of the six rows of legacyOrder whose
// bucket table held 8 buckets.
var legacyRowPayload = []byte{
	0x01, 0x02, 0x01, 0x6b, 0x01, 0x76, 0x06, 0x00, 0x4f, 0x02, 0x02, 0x79,
	0x7a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x02, 0x00, 0x01,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0xf0, 0x3f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
	0x40, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00,
	0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x06, 0x02, 0x01, 0x78, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x02, 0x01, 0x61, 0x00, 0x03,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf,
}

const legacyBuckets = 8

// legacyOrder is the Foreach order the source relation had when the
// fixture was written, which the payload holds its rows in.
var legacyOrder = []struct {
	t mring.Tuple
	m float64
}{
	{mring.Tuple{mring.Int(-40), mring.Str("yz")}, -2},
	{mring.Tuple{mring.Str(""), mring.Float(-0.5)}, 1},
	{mring.Tuple{mring.Float(2.25), mring.Int(7)}, 3},
	{mring.Tuple{mring.Int(1), mring.Float(1.5)}, 2},
	{mring.Tuple{mring.Int(3), mring.Str("x")}, 0.5},
	{mring.Tuple{mring.Str("a"), mring.Int(-2)}, -1},
}

// legacyRows builds a relation of the fixture's rows, added in
// legacyOrder, so that it visits them in that order.
func legacyRows() *mring.Relation {
	r := mring.NewRelation(mring.Schema{"k", "v"})
	for _, row := range legacyOrder {
		r.Add(row.t, row.m)
	}
	return r
}

// requireLegacyOrder checks that visit enumerates legacyOrder exactly:
// same rows in the same order, each value with the same kind and bits.
func requireLegacyOrder(t *testing.T, label string, visit func(func(mring.Tuple, float64))) {
	t.Helper()
	i := 0
	visit(func(tp mring.Tuple, m float64) {
		if i >= len(legacyOrder) {
			t.Fatalf("%s: more than %d rows", label, len(legacyOrder))
		}
		want := legacyOrder[i]
		if len(tp) != len(want.t) || m != want.m {
			t.Fatalf("%s: row %d is (%v, %v), want (%v, %v)", label, i, tp, m, want.t, want.m)
		}
		for j, v := range tp {
			w := want.t[j]
			if v.K != w.K || v.I != w.I || v.S != w.S {
				t.Fatalf("%s: row %d column %d is %#v, want %#v", label, i, j, v, w)
			}
		}
		i++
	})
	if i != len(legacyOrder) {
		t.Fatalf("%s: %d rows, want %d", label, i, len(legacyOrder))
	}
}

// TestLegacyRowPayload pins that a row-format payload from an earlier
// build still reads: it decodes to its rows, kinds and order, and an
// exact restore rebuilds the Foreach order its source relation had. The
// same rows written by this build are columnar with Mixed columns, and
// restore to the same order.
func TestLegacyRowPayload(t *testing.T) {
	b, err := DecodePayload(legacyRowPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Schema.Equal(mring.Schema{"k", "v"}) {
		t.Fatalf("schema %v", b.Schema)
	}
	requireLegacyOrder(t, "decoded", b.Foreach)

	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"legacy", legacyRowPayload}, {"columnar", EncodeRelationPlain(legacyRows())}} {
		dst := mring.NewRelation(mring.Schema{"k", "v"})
		if err := RestoreIntoExact(dst, tc.payload, legacyBuckets); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if dst.TableSize() != legacyBuckets {
			t.Fatalf("%s: restored table has %d buckets, want %d", tc.name, dst.TableSize(), legacyBuckets)
		}
		requireLegacyOrder(t, tc.name+" restored", dst.Foreach)
	}

	if enc := EncodeRelationPlain(legacyRows()); enc[0] != payloadColumnar || bytes.Equal(enc, legacyRowPayload) {
		t.Fatalf("this build wrote tag 0x%02x, want the columnar form", enc[0])
	}
}
