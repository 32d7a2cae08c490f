package net

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mring"
)

func buildHistory(t *testing.T, schema mring.Schema, mixed bool, seed int64) *mring.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := mring.NewRelation(schema)
	for op := 0; op < 200; op++ {
		k := int64(rng.Intn(48))
		var tp mring.Tuple
		if mixed && k%2 == 0 {
			tp = mring.Tuple{mring.Int(k), mring.Str("s")}
		} else if mixed {
			tp = mring.Tuple{mring.Str(fmt.Sprint(k)), mring.Float(float64(k) / 2)}
		} else {
			tp = mring.Tuple{mring.Int(k), mring.Int(k * 3)}
		}
		if rng.Intn(4) == 0 {
			r.Set(tp, 0) // deletion: row count drops, capacity stays
		} else {
			r.Add(tp, float64(rng.Intn(5)+1))
		}
	}
	return r
}

func requireExact(t *testing.T, label string, got, want *mring.Relation) {
	t.Helper()
	if got.TableSize() != want.TableSize() {
		t.Fatalf("%s: TableSize got %d want %d", label, got.TableSize(), want.TableSize())
	}
	var wr []mring.Tuple
	var wm []float64
	want.Foreach(func(tp mring.Tuple, m float64) { wr = append(wr, tp); wm = append(wm, m) })
	i := 0
	got.Foreach(func(tp mring.Tuple, m float64) {
		if i < len(wr) && (!tp.Equal(wr[i]) || wm[i] != m) {
			t.Fatalf("%s: row %d: got (%v,%v) want (%v,%v)", label, i, tp, m, wr[i], wm[i])
		}
		i++
	})
	if i != len(wr) {
		t.Fatalf("%s: got %d rows want %d", label, i, len(wr))
	}
}

// TestRestoreExactBothForms pins the exact-layout restore for kind-pure
// relations ("columnar": typed columns) and relations whose columns mix
// kinds ("rows", the form earlier builds wrote them in; now Mixed
// columns): the rebuilt relation must have the identical bucket-table
// size and Foreach order as the encoder's source.
func TestRestoreExactBothForms(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mixed bool
	}{{"columnar", false}, {"rows", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				src := buildHistory(t, mring.Schema{"a", "b"}, tc.mixed, seed)
				payload := EncodeRelationPlain(src)
				got, err := RestoreRelationExact(payload, src.TableSize(), src.Schema())
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				requireExact(t, tc.name, got, src)
			}
		})
	}
}

// TestRestoreEmptyKeepsCapacity: an empty relation with a grown table
// restores its capacity (which shapes future layout) from buckets alone.
func TestRestoreEmptyKeepsCapacity(t *testing.T) {
	src := mring.NewRelation(mring.Schema{"a"})
	for i := 0; i < 100; i++ {
		src.Add(mring.Tuple{mring.Int(int64(i))}, 1)
	}
	src.Clear()
	if src.Len() != 0 || src.TableSize() < 8 {
		t.Fatalf("bad fixture: len=%d size=%d", src.Len(), src.TableSize())
	}
	payload := EncodeRelationPlain(src) // nil for empty
	if payload != nil {
		t.Fatalf("empty relation should encode to nil")
	}
	got, err := RestoreRelationExact(payload, src.TableSize(), src.Schema())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got.TableSize() != src.TableSize() || got.Len() != 0 {
		t.Fatalf("capacity not restored: got size %d want %d", got.TableSize(), src.TableSize())
	}
}

func TestRestoreRejectsCorruptSizes(t *testing.T) {
	src := buildHistory(t, mring.Schema{"a", "b"}, false, 1)
	payload := EncodeRelationPlain(src)
	for _, tc := range []struct {
		name    string
		buckets int
	}{
		{"not-power-of-two", 12},
		{"too-small-for-rows", 8},
		{"huge", MaxRestoreBuckets * 2},
		{"zero-with-rows", 0},
	} {
		if tc.buckets == 8 && src.Len() <= 8 {
			continue
		}
		if _, err := RestoreRelationExact(payload, tc.buckets, src.Schema()); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	// Corrupt payload bytes error rather than panic.
	if _, err := RestoreRelationExact(payload[:len(payload)-3], src.TableSize(), src.Schema()); err == nil {
		t.Fatalf("truncated payload: expected error")
	}
}
