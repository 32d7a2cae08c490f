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
