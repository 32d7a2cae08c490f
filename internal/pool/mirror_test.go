package pool

import (
	"testing"

	"repro/internal/mring"
)

// TestMirrorInvalidatesOnMutation pins the mirror lifecycle: MirrorOf
// caches per content version, any relation mutation invalidates, and
// mixed-kind relations cache the negative answer.
func TestMirrorInvalidatesOnMutation(t *testing.T) {
	schema := mring.Schema{"k"}
	r := mring.NewRelation(schema)
	r.Add(mring.Tuple{mring.Int(1)}, 1)
	m1 := MirrorOf(r)
	if m1 == nil {
		t.Fatalf("no mirror for a fixed-kind relation")
	}
	if MirrorOf(r) != m1 {
		t.Fatalf("mirror not cached across calls")
	}
	r.Add(mring.Tuple{mring.Int(2)}, 1)
	m2 := MirrorOf(r)
	if m2 == m1 {
		t.Fatalf("stale mirror survived a mutation")
	}
	if m2.Len() != 2 {
		t.Fatalf("rebuilt mirror has %d rows, want 2", m2.Len())
	}
	// In-place multiplicity update must invalidate too.
	r.Add(mring.Tuple{mring.Int(1)}, 1)
	if MirrorOf(r) == m2 {
		t.Fatalf("stale mirror survived an in-place multiplicity update")
	}

	r.Add(mring.Tuple{mring.Str("mixed")}, 1)
	if MirrorOf(r) != nil {
		t.Fatalf("mixed-kind relation produced a mirror")
	}
	if MirrorOf(r) != nil {
		t.Fatalf("negative mirror answer not stable")
	}
}

// TestMirrorColumnsArePresized pins that TryFromRelation sizes every
// column and the multiplicities to the relation's row count before
// filling them: the allocations of one conversion do not grow with the
// rows, and the batch encodes exactly as one grown row by row does.
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
		return testing.AllocsPerRun(5, func() { TryFromRelation(r) })
	}
	small, large := fill(16), fill(4096)
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("conversion allocates %v times for 16 rows, %v for 4096", a, b)
	}
	got, ok := TryFromRelation(large)
	if !ok {
		t.Fatal("no batch for a fixed-kind relation")
	}
	grown := NewColBatch(schema, []mring.Kind{mring.KInt, mring.KFloat, mring.KString})
	large.Foreach(func(tp mring.Tuple, m float64) { grown.Append(tp, m) })
	if string(got.Encode()) != string(grown.Encode()) {
		t.Fatal("presized batch encodes differently from a grown one")
	}
}
