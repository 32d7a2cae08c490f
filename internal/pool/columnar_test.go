package pool

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mring"
)

func tup(vs ...int) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		t[i] = mring.Int(int64(v))
	}
	return t
}

// row and rowList are a row sequence in a fixed order, for writing
// batches whose rows a relation would reorder or merge.
type row struct {
	t mring.Tuple
	m float64
}

type rowList []row

func (l rowList) Len() int { return len(l) }

func (l rowList) Foreach(f func(t mring.Tuple, m float64)) {
	for _, r := range l {
		f(r.t, r.m)
	}
}

// write encodes rows under schema with a fresh Writer and reads the
// encoding back in place.
func write(t testing.TB, schema mring.Schema, rows Rows) *ColBatch {
	t.Helper()
	var w Writer
	b, err := Decode(w.Append(nil, schema, rows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestColBatchRoundTrip(t *testing.T) {
	src := rowList{
		{mring.Tuple{mring.Int(1), mring.Float(2.5), mring.Str("x")}, 2},
		{mring.Tuple{mring.Int(-7), mring.Float(0), mring.Str("")}, -1.5},
	}
	b := write(t, mring.Schema{"a", "f", "s"}, src)
	if b.Len() != 2 {
		t.Fatal("Len wrong")
	}
	for i, k := range []mring.Kind{mring.KInt, mring.KFloat, mring.KString} {
		if b.Kind(i) != k {
			t.Fatalf("column %d has kind %d, want %d", i, b.Kind(i), k)
		}
	}
	enc := b.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Schema.Equal(b.Schema) || dec.Len() != 2 {
		t.Fatalf("decode mismatch: %v", dec.Schema)
	}
	if !batchesEqual(b, dec) || !rowsEqual(dec, src) {
		t.Fatalf("decode mismatch: %+v vs %+v", dec, b)
	}
}

func TestColBatchDecodeTruncated(t *testing.T) {
	enc := write(t, mring.Schema{"a"}, rowList{{tup(42), 1}}).Encode()
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
}

func TestColBatchRelationConversions(t *testing.T) {
	r := mring.NewRelation(mring.Schema{"a", "b"})
	r.Add(tup(1, 2), 3)
	r.Add(tup(4, 5), -1)
	back := mring.NewRelation(r.Schema())
	FromRelation(r).Foreach(back.Add)
	if !back.Equal(r) {
		t.Fatalf("round trip: %v vs %v", back, r)
	}
}

// Property: Encode/Decode round-trips arbitrary relations.
func TestQuickColBatchRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := mring.NewRelation(mring.Schema{"a", "b"})
		for i := 0; i < rng.Intn(50); i++ {
			r.Add(tup(rng.Intn(100), rng.Intn(100)), float64(rng.Intn(9)-4))
		}
		b := FromRelation(r)
		dec, err := Decode(b.Encode())
		if err != nil {
			return false
		}
		back := mring.NewRelation(dec.Schema)
		dec.Foreach(back.Add)
		return back.Equal(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterReuse pins that a Writer's reused scratch carries nothing
// from one payload to the next: payloads of different arities, kinds and
// Mixed columns, written in turn by one Writer into one buffer, equal
// what a fresh Writer writes for each.
func TestWriterReuse(t *testing.T) {
	wide := mring.NewRelation(mring.Schema{"k", "v", "s"})
	wide.Add(mring.Tuple{mring.Int(1), mring.Float(2), mring.Str("a")}, 1)
	wide.Add(mring.Tuple{mring.Str("b"), mring.Float(3), mring.Str("c")}, -2)
	narrow := mring.NewRelation(mring.Schema{"x"})
	narrow.Add(mring.Tuple{mring.Float(0.5)}, 4)
	empty := mring.NewRelation(mring.Schema{"p", "q"})
	var w Writer
	var buf []byte
	for _, r := range []*mring.Relation{wide, narrow, empty, wide, narrow} {
		var fresh Writer
		want := fresh.Append(nil, r.Schema(), r)
		buf = w.Append(buf[:0], r.Schema(), r)
		if !bytes.Equal(buf, want) {
			t.Fatalf("reused Writer wrote %x for %v, a fresh one %x", buf, r, want)
		}
		if n := w.Load(r.Schema(), r); n != len(want) {
			t.Fatalf("Load returned %d for %v, the encoding is %d bytes", n, r, len(want))
		}
		w.AppendTo(nil)
	}
}

// TestWarmWriterAllocatesNothing pins that a warm Writer encodes a
// payload into a caller's buffer without allocating, and that it lets go
// of scratch a bulk payload grew past maxRetained.
func TestWarmWriterAllocatesNothing(t *testing.T) {
	fill := func(n int) *mring.Relation {
		r := mring.NewRelation(mring.Schema{"i", "f", "s"})
		for i := 0; i < n; i++ {
			r.Add(mring.Tuple{mring.Int(int64(i)), mring.Float(float64(i) / 4), mring.Str("s")}, float64(i%3+1))
		}
		return r
	}
	small, bulk := fill(1000), fill(20000)
	var w Writer
	buf := w.Append(nil, small.Schema(), small)
	if allocs := testing.AllocsPerRun(5, func() { buf = w.Append(buf[:0], small.Schema(), small) }); allocs != 0 {
		t.Fatalf("a warm Writer allocates %v times per payload", allocs)
	}
	w.Append(nil, bulk.Schema(), bulk)
	if w.cols != nil || w.mults != nil {
		t.Fatal("the Writer kept the scratch of a bulk payload")
	}
}

// randomGroupBatch builds a batch over (int, string, float) columns with
// a small value domain so rows repeat, plus NaN and >2^53 edge values.
func randomGroupBatch(t testing.TB, rng *rand.Rand, rows int) *ColBatch {
	schema := mring.Schema{"k", "name", "v"}
	var l rowList
	for i := 0; i < rows; i++ {
		k := int64(rng.Intn(6))
		if rng.Intn(16) == 0 {
			k = (int64(1) << 53) + int64(rng.Intn(2))
		}
		v := float64(rng.Intn(4))
		if rng.Intn(16) == 0 {
			v = math.NaN()
		}
		l = append(l, row{mring.Tuple{
			mring.Int(k),
			mring.Str(fmt.Sprintf("g%d", rng.Intn(3))),
			mring.Float(v),
		}, float64(rng.Intn(5) - 2)})
	}
	return write(t, schema, l)
}

// TestToRelationColumnarMatchesRowPath guards the decode path: a batch
// with repeated rows and NaN and >2^53 values, shipped through Encode and
// Decode and added in batch order, must equal the relation a row-by-row
// Add of the source batch builds.
func TestToRelationColumnarMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := randomGroupBatch(t, rng, 250)
	want := mring.NewRelation(b.Schema)
	b.Foreach(func(tp mring.Tuple, m float64) { want.Add(tp.Clone(), m) })
	dec, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := mring.NewRelation(dec.Schema)
	dec.Foreach(got.Add)
	if !got.Equal(want) {
		t.Fatalf("decoded batch diverges:\n got %v\nwant %v", got, want)
	}
}

// TestFromRowsMixedColumns pins that the writer is lossless: a column whose
// values mix kinds becomes Mixed, a kind-pure one keeps its type, and the
// batch's rows keep their order and each value's kind and bits — Int(2) stays an int although it equals Float(2).
func TestFromRowsMixedColumns(t *testing.T) {
	r := mring.NewRelation(mring.Schema{"k", "v", "n"})
	want := []mring.Tuple{
		{mring.Int(2), mring.Float(2), mring.Int(1)},
		{mring.Str("2"), mring.Int(3), mring.Int(2)},
		{mring.Float(math.Copysign(0, -1)), mring.Float(math.NaN()), mring.Int(3)},
	}
	for i, tp := range want {
		r.Add(tp, float64(i+1))
	}
	b := FromRelation(r)
	if k := []mring.Kind{b.Kind(0), b.Kind(1), b.Kind(2)}; k[0] != Mixed || k[1] != Mixed || k[2] != mring.KInt {
		t.Fatalf("column kinds %v, want [Mixed Mixed int]", k)
	}
	dec, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(b, dec) {
		t.Fatalf("round trip diverged: %+v vs %+v", dec, b)
	}
	var src, got []mring.Tuple
	r.Foreach(func(tp mring.Tuple, _ float64) { src = append(src, tp.Clone()) })
	dec.Foreach(func(tp mring.Tuple, _ float64) { got = append(got, tp.Clone()) })
	if len(got) != len(src) {
		t.Fatalf("Foreach visited %d rows, want %d", len(got), len(src))
	}
	for i, tp := range got {
		for j, v := range tp {
			w := src[i][j]
			if !v.Identical(w) {
				t.Fatalf("row %d column %d: got %v %v, want %v %v", i, j, v.Kind(), v, w.Kind(), w)
			}
		}
	}
}
