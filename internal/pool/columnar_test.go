package pool

import (
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
	for i := 0; i < 2; i++ {
		t1, m1 := b.Row(i)
		t2, m2 := dec.Row(i)
		if !t1.Equal(t2) || m1 != m2 {
			t.Fatalf("row %d mismatch: %v/%g vs %v/%g", i, t1, m1, t2, m2)
		}
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
	b := FromRelation(r)
	back := b.ToRelation()
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
		return dec.ToRelation().Equal(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
