package pool

import (
	"repro/internal/mring"
)

// TryFromRelation is the strict columnar conversion: it succeeds only
// when every column holds one value kind throughout, so the batch
// round-trips losslessly (the requirement for shipping real bytes).
// Unlike FromRelation, which coerces mixed columns to the first tuple's
// kinds, a mismatch reports ok=false.
func TryFromRelation(r *mring.Relation) (*ColBatch, bool) {
	var kinds []mring.Kind
	ok := true
	r.Foreach(func(t mring.Tuple, _ float64) {
		if !ok {
			return
		}
		if kinds == nil {
			kinds = make([]mring.Kind, len(t))
			for i, v := range t {
				kinds[i] = v.K
			}
		}
		for i, v := range t {
			if v.K != kinds[i] {
				ok = false
				return
			}
		}
	})
	if !ok {
		return nil, false
	}
	if kinds == nil {
		kinds = make([]mring.Kind, len(r.Schema()))
	}
	b := NewColBatch(r.Schema(), kinds)
	r.Foreach(func(t mring.Tuple, m float64) { b.Append(t, m) })
	return b, true
}

// mirrorState is the Relation.Scratch attachment: the columnar mirror (or
// the fact that none is possible) for one relation content version.
type mirrorState struct {
	batch *ColBatch
	ver   uint64
}

// MirrorOf returns an up-to-date read-only columnar mirror of r — a
// ColBatch holding exactly r's contents, one row per stored tuple —
// building and attaching one (via Relation.Scratch) when the cached
// mirror is stale. It returns nil when r cannot be mirrored losslessly
// (mixed-kind columns); that outcome is cached per content version too.
// Callers must not mutate the batch; any mutation of r bumps its version
// and invalidates the mirror.
func MirrorOf(r *mring.Relation) *ColBatch {
	if s, ok := r.Scratch().(*mirrorState); ok && s.ver == r.Version() {
		return s.batch
	}
	b, ok := TryFromRelation(r)
	if !ok {
		b = nil
	}
	r.SetScratch(&mirrorState{batch: b, ver: r.Version()})
	return b
}

// AttachMirror installs batch as r's columnar mirror for its current
// version. The caller guarantees batch holds exactly r's contents with
// one row per stored tuple — the shuffle receive path attaches the
// decoded fragment it just merged, making the next kernel scan free.
func AttachMirror(r *mring.Relation, batch *ColBatch) {
	r.SetScratch(&mirrorState{batch: batch, ver: r.Version()})
}

// EncodeRelation serializes r in the columnar wire format, reusing (and
// attaching) its columnar mirror when the contents allow one. Mixed-kind
// relations fall back to FromRelation's first-tuple-kind coercion — fine
// for size accounting, lossy for real shipping, so byte-shipping callers
// must go through MirrorOf/TryFromRelation instead.
func EncodeRelation(r *mring.Relation) []byte {
	if b := MirrorOf(r); b != nil {
		return b.Encode()
	}
	return FromRelation(r).Encode()
}
