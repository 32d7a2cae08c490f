package pool

import (
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

func TestColBatchRoundTrip(t *testing.T) {
	b := NewColBatch(mring.Schema{"a", "f", "s"}, []mring.Kind{mring.KInt, mring.KFloat, mring.KString})
	b.Append(mring.Tuple{mring.Int(1), mring.Float(2.5), mring.Str("x")}, 2)
	b.Append(mring.Tuple{mring.Int(-7), mring.Float(0), mring.Str("")}, -1.5)
	if b.Len() != 2 {
		t.Fatal("Len wrong")
	}
	enc := b.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Schema.Equal(b.Schema) || dec.Len() != 2 {
		t.Fatalf("decode mismatch: %v", dec.Schema)
	}
	if !batchesEqual(b, dec) {
		t.Fatalf("decode mismatch: %+v vs %+v", dec, b)
	}
}

func TestColBatchDecodeTruncated(t *testing.T) {
	b := NewColBatch(mring.Schema{"a"}, []mring.Kind{mring.KInt})
	b.Append(tup(42), 1)
	enc := b.Encode()
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

// TestMirrorColumnsArePresized pins that FromRelation, the conversion
// every relation payload is encoded from, sizes every column
// and the multiplicities to the relation's row count before filling
// them: the allocations of one conversion do not grow with the rows, and
// the batch encodes exactly as one grown row by row does.
func TestMirrorColumnsArePresized(t *testing.T) {
	schema := mring.Schema{"i", "f", "s"}
	fill := func(n int) *mring.Relation {
		r := mring.NewRelation(schema)
		for i := 0; i < n; i++ {
			r.Add(mring.Tuple{mring.Int(int64(i)), mring.Float(float64(i) / 4), mring.Str("s")}, float64(i%3+1))
		}
		return r
	}
	allocs := func(r *mring.Relation) float64 {
		return testing.AllocsPerRun(5, func() { FromRelation(r) })
	}
	small, large := fill(16), fill(4096)
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("conversion allocates %v times for 16 rows, %v for 4096", a, b)
	}
	got := FromRelation(large)
	grown := NewColBatch(schema, []mring.Kind{mring.KInt, mring.KFloat, mring.KString})
	large.Foreach(func(tp mring.Tuple, m float64) { grown.Append(tp, m) })
	if string(got.Encode()) != string(grown.Encode()) {
		t.Fatal("presized batch encodes differently from a grown one")
	}
}

// randomGroupBatch builds a batch over (int, string, float) columns with
// a small value domain so rows repeat, plus NaN and >2^53 edge values.
func randomGroupBatch(rng *rand.Rand, rows int) *ColBatch {
	schema := mring.Schema{"k", "name", "v"}
	kinds := []mring.Kind{mring.KInt, mring.KString, mring.KFloat}
	b := NewColBatch(schema, kinds)
	for i := 0; i < rows; i++ {
		k := int64(rng.Intn(6))
		if rng.Intn(16) == 0 {
			k = (int64(1) << 53) + int64(rng.Intn(2))
		}
		v := float64(rng.Intn(4))
		if rng.Intn(16) == 0 {
			v = math.NaN()
		}
		b.Append(mring.Tuple{
			mring.Int(k),
			mring.Str(fmt.Sprintf("g%d", rng.Intn(3))),
			mring.Float(v),
		}, float64(rng.Intn(5)-2))
	}
	return b
}

// TestToRelationColumnarMatchesRowPath guards the decode path: a batch
// with repeated rows and NaN and >2^53 values, shipped through Encode and
// Decode and added in batch order, must equal the relation a row-by-row
// Add of the source batch builds.
func TestToRelationColumnarMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := randomGroupBatch(rng, 250)
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

// TestFromRowsMixedColumns pins the lossless conversion: a column whose
// values mix kinds becomes Mixed, a kind-pure one keeps its type, and the
// batch's rows, read forwards or backwards, keep each value's kind and
// bits — Int(2) stays an int although it equals Float(2).
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
	if k := []mring.Kind{b.Cols[0].Kind, b.Cols[1].Kind, b.Cols[2].Kind}; k[0] != Mixed || k[1] != Mixed || k[2] != mring.KInt {
		t.Fatalf("column kinds %v, want [Mixed Mixed int]", k)
	}
	dec, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqual(b, dec) {
		t.Fatalf("round trip diverged: %+v vs %+v", dec, b)
	}
	var fwd, rev []mring.Tuple
	r.Foreach(func(tp mring.Tuple, _ float64) { fwd = append(fwd, tp.Clone()) })
	dec.ForeachReverse(func(tp mring.Tuple, _ float64) { rev = append(rev, tp.Clone()) })
	if len(rev) != len(fwd) {
		t.Fatalf("ForeachReverse visited %d rows, want %d", len(rev), len(fwd))
	}
	for i, tp := range rev {
		for j, v := range tp {
			w := fwd[len(fwd)-1-i][j]
			if v.K != w.K || v.I != w.I || v.S != w.S || math.Float64bits(v.F) != math.Float64bits(w.F) {
				t.Fatalf("reverse row %d column %d: got %#v, want %#v", i, j, v, w)
			}
		}
	}
}
