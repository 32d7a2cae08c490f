package ivm

// Keyed changefeed routing gate: an OnKey subscription must observe
// exactly the plain feed filtered to its key prefix, skipping
// transactions that did not touch a matching group, on both backends.
// The capture-teardown contract rides along: cancelling the last
// subscriber returns the engine — including the cluster watch — to zero
// capture overhead immediately.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mring"
)

// keyedCase drives one engine with a plain subscriber and keyed
// subscribers on every group, then checks the routed streams.
func testKeyedRouting(t *testing.T, opts ...Option) {
	t.Helper()
	query := Sum([]string{"k"}, Join(Table("R", "a", "k"), Table("S", "k", "c")))
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	e, err := New("QK", query, bases, opts...)
	if err != nil {
		t.Fatal(err)
	}

	const groups = 6
	var plain []Delta
	e.Subscribe(func(d Delta) { plain = append(plain, d) })
	keyed := make([][]Delta, groups)
	for k := 0; k < groups; k++ {
		k := k
		e.Subscribe(func(d Delta) { keyed[k] = append(keyed[k], d) }, OnKey(Int(int64(k))))
	}

	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 10; round++ {
		br := NewBatch(Schema{"a", "k"})
		bs := NewBatch(Schema{"k", "c"})
		// Rounds touch a shifting subset of groups so some keyed
		// subscribers are skipped in most rounds.
		lo, hi := round%groups, round%groups+2
		for i := 0; i < 30; i++ {
			g := lo + rng.Intn(hi-lo+1)
			if g >= groups {
				g = groups - 1
			}
			br.Insert(Row(rng.Intn(500), g))
			bs.Insert(Row(g, rng.Intn(40)))
		}
		tx := e.NewTx()
		tx.Put("R", &Batch{rel: br.rel.Clone()})
		tx.Put("S", &Batch{rel: bs.rel.Clone()})
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}

	for k := 0; k < groups; k++ {
		// Expected: the plain feed filtered to group k, empty deltas
		// dropped.
		var want []Delta
		for _, d := range plain {
			f := mring.NewRelation(d.rel.Schema())
			d.Foreach(func(tp Tuple, m float64) {
				if tp[0].Equal(Int(int64(k))) {
					f.Add(tp, m)
				}
			})
			if f.Len() > 0 {
				want = append(want, Delta{Seq: d.Seq, rel: f})
			}
		}
		got := keyed[k]
		if len(got) != len(want) {
			t.Fatalf("key %d: %d deltas delivered, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("key %d delta %d: seq %d, want %d", k, i, got[i].Seq, want[i].Seq)
			}
			if got[i].String() != want[i].String() {
				t.Fatalf("key %d delta %d not the filtered plain delta\n got %s\nwant %s",
					k, i, got[i], want[i])
			}
		}
		if len(got) == len(plain) {
			t.Fatalf("key %d was never skipped: %d deltas for %d transactions", k, len(got), len(plain))
		}
	}
}

func TestSubscribeOnKeyLocal(t *testing.T) { testKeyedRouting(t) }

func TestSubscribeOnKeyDistributed(t *testing.T) {
	for _, w := range []int{1, 8, 16} {
		testKeyedRouting(t, Distributed(w), KeyRanks(map[string]int{"a": 3, "k": 2}))
	}
}

// TestSubscribeOnKeyMultiColumn pins prefix routing on a composite
// group key: a one-column key matches every group sharing the leading
// column, a two-column key matches exactly one group.
func TestSubscribeOnKeyMultiColumn(t *testing.T) {
	query := Sum([]string{"k", "c"}, Join(Table("R", "a", "k"), Table("S", "k", "c")))
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	e, err := New("QM", query, bases)
	if err != nil {
		t.Fatal(err)
	}
	var wide, narrow []Delta
	e.Subscribe(func(d Delta) { wide = append(wide, d) }, OnKey(Int(1)))
	e.Subscribe(func(d Delta) { narrow = append(narrow, d) }, OnKey(Int(1), Int(7)))

	br := NewBatch(Schema{"a", "k"})
	bs := NewBatch(Schema{"k", "c"})
	for i := 0; i < 8; i++ {
		br.Insert(Row(i, i%2))
		bs.Insert(Row(i%2, 7))
		bs.Insert(Row(i%2, 8))
	}
	tx := e.NewTx()
	tx.Put("R", &Batch{rel: br.rel})
	tx.Put("S", &Batch{rel: bs.rel})
	if err := e.Apply(tx); err != nil {
		t.Fatal(err)
	}

	if len(wide) != 1 || wide[0].Len() != 2 {
		t.Fatalf("one-column key: want 1 delta with groups (1,7),(1,8), got %v", wide)
	}
	if len(narrow) != 1 || narrow[0].Len() != 1 {
		t.Fatalf("two-column key: want 1 delta with group (1,7), got %v", narrow)
	}
	narrow[0].Foreach(func(tp Tuple, _ float64) {
		if !tp[0].Equal(Int(1)) || !tp[1].Equal(Int(7)) {
			t.Fatalf("two-column key routed wrong group %v", tp)
		}
	})

	// A key longer than the result schema is a subscription bug:
	// Engine.Subscribe panics, Registry.Subscribe errors.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Subscribe with over-long key did not panic")
			}
		}()
		e.Subscribe(func(Delta) {}, OnKey(Int(1), Int(2), Int(3)))
	}()
}

// TestSubscribeCancelStopsCapture pins the zero-overhead teardown: when
// the last subscriber cancels, the distributed backend drops its
// cluster watch immediately — no per-batch delta accumulation survives
// an unsubscribed engine — and a later re-subscribe starts a clean feed
// covering only new transactions.
func TestSubscribeCancelStopsCapture(t *testing.T) {
	query := Sum([]string{"k"}, Join(Table("R", "a", "k"), Table("S", "k", "c")))
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	e, err := New("QC", query, bases, Distributed(8), KeyRanks(map[string]int{"a": 3, "k": 2}))
	if err != nil {
		t.Fatal(err)
	}
	db := e.be.(*distBackend)
	apply := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		br := NewBatch(Schema{"a", "k"})
		bs := NewBatch(Schema{"k", "c"})
		for i := 0; i < 20; i++ {
			br.Insert(Row(rng.Intn(100), rng.Intn(5)))
			bs.Insert(Row(rng.Intn(5), rng.Intn(30)))
		}
		tx := e.NewTx()
		tx.Put("R", &Batch{rel: br.rel})
		tx.Put("S", &Batch{rel: bs.rel})
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}

	// watched counts the views the cluster captures. Between transactions
	// every accumulator is empty, so taking it changes nothing.
	watched := func() int {
		w := 0
		for _, v := range e.prog.Views {
			if db.cl.TakeWatchDelta(v.Name) != nil {
				w++
			}
		}
		return w
	}
	n := 0
	cancelA, _ := e.Subscribe(func(Delta) { n++ })
	cancelB, _ := e.Subscribe(func(Delta) { n++ })
	apply(1)
	if n != 2 {
		t.Fatalf("delivered %d calls, want 2", n)
	}
	if w := watched(); w != 1 {
		t.Fatalf("backend watches %d views while subscribed, want 1", w)
	}

	cancelA()
	cancelA() // cancel is idempotent
	if watched() != 1 {
		t.Fatalf("backend dropped watch with a subscriber remaining")
	}
	cancelB()
	if w := watched(); w != 0 {
		t.Fatalf("cluster still holds %d watch accumulators after last cancel, want 0", w)
	}

	// Transactions between cancel and re-subscribe must not leak into
	// the next feed.
	apply(2)
	var deltas []Delta
	e.Subscribe(func(d Delta) { deltas = append(deltas, d) })
	apply(3)
	if len(deltas) != 1 {
		t.Fatalf("re-subscribed feed delivered %d deltas, want 1", len(deltas))
	}

	// The fresh delta covers exactly the last transaction: replaying
	// feed-covered transactions on a shadow engine reproduces the delta.
	shadow, err := New("QC", query, bases, Distributed(8), KeyRanks(map[string]int{"a": 3, "k": 2}))
	if err != nil {
		t.Fatal(err)
	}
	e2 := shadow
	var shadowDeltas []Delta
	applyTo := func(eng *Engine, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		br := NewBatch(Schema{"a", "k"})
		bs := NewBatch(Schema{"k", "c"})
		for i := 0; i < 20; i++ {
			br.Insert(Row(rng.Intn(100), rng.Intn(5)))
			bs.Insert(Row(rng.Intn(5), rng.Intn(30)))
		}
		tx := eng.NewTx()
		tx.Put("R", &Batch{rel: br.rel})
		tx.Put("S", &Batch{rel: bs.rel})
		if err := eng.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	applyTo(e2, 1)
	applyTo(e2, 2)
	e2.Subscribe(func(d Delta) { shadowDeltas = append(shadowDeltas, d) })
	applyTo(e2, 3)
	if len(shadowDeltas) != 1 || shadowDeltas[0].rel.String() != deltas[0].rel.String() {
		t.Fatalf("re-subscribed delta polluted by unsubscribed transactions\n got %v\nwant %v",
			deltas, shadowDeltas)
	}
}

// TestRegistryOnKeyRouting pins keyed routing through the Registry
// path, where two aliased views share one feed.
func TestRegistryOnKeyRouting(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	q := Sum([]string{"k"}, Join(Table("R", "a", "k"), Table("S", "k", "c")))
	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("v", q); err != nil {
		t.Fatal(err)
	}
	var hits []Delta
	if _, err := reg.Subscribe("v", func(d Delta) { hits = append(hits, d) }, OnKey(Int(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Subscribe("v", func(Delta) {}, OnKey(Int(1), Int(2), Int(3))); err == nil {
		t.Fatal("Registry.Subscribe with over-long key succeeded, want error")
	}

	br := NewBatch(Schema{"a", "k"})
	bs := NewBatch(Schema{"k", "c"})
	br.Insert(Row(10, 2))
	bs.Insert(Row(2, 5))
	br.Insert(Row(11, 3))
	bs.Insert(Row(3, 6))
	tx := reg.NewTx()
	tx.Put("R", &Batch{rel: br.rel})
	tx.Put("S", &Batch{rel: bs.rel})
	if err := reg.Apply(tx); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Len() != 1 {
		t.Fatalf("registry keyed feed delivered %v, want one single-group delta", hits)
	}
	hits[0].Foreach(func(tp Tuple, _ float64) {
		if !tp[0].Equal(Int(2)) {
			t.Fatalf("registry keyed feed routed group %v, want key 2", tp)
		}
	})
}

// TestOnKeyMatchesByKeyIdentity pins that a keyed subscription matches
// groups by the key identity relations store and shard them by, not by
// value equality: a NaN key reaches its subscriber, and integers beyond
// 2^53 that one float64 would hold are two groups, each reaching only
// the subscriber keyed on it. On the local and distributed backends and
// through a Registry.
func TestOnKeyMatchesByKeyIdentity(t *testing.T) {
	query := Sum([]string{"a"}, Table("R", "a", "b"))
	bases := map[string]Schema{"R": {"a", "b"}}
	big := int64(1) << 53
	for _, tc := range []struct {
		name     string
		registry bool
		opts     []Option
	}{{"local", false, nil}, {"distributed2", false, []Option{Distributed(2)}}, {"registry", true, nil}} {
		t.Run(tc.name, func(t *testing.T) {
			var apply func(string, *Batch) error
			var subscribe func(func(Delta), ...SubOption)
			if tc.registry {
				r, err := NewRegistry(bases, tc.opts...)
				if err != nil || r.Register("q", query) != nil {
					t.Fatal(err)
				}
				apply = r.ApplyBatch
				subscribe = func(fn func(Delta), o ...SubOption) {
					if _, err := r.Subscribe("q", fn, o...); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				e, err := New("q", query, bases, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				apply = e.ApplyBatch
				subscribe = func(fn func(Delta), o ...SubOption) { e.Subscribe(fn, o...) }
			}
			var plain, nan, lo, hi []float64
			collect := func(dst *[]float64) func(Delta) {
				return func(d Delta) { d.Foreach(func(_ Tuple, m float64) { *dst = append(*dst, m) }) }
			}
			subscribe(collect(&plain))
			subscribe(collect(&nan), OnKey(Float(math.NaN())))
			subscribe(collect(&lo), OnKey(Int(big)))
			subscribe(collect(&hi), OnKey(Int(big+1)))

			b := NewBatch(Schema{"a", "b"})
			b.Insert(Row(math.NaN(), 1))
			if err := apply("R", b); err != nil {
				t.Fatal(err)
			}
			if len(plain) != 1 || len(nan) != 1 {
				t.Fatalf("a NaN group: plain subscriber got %v, OnKey(NaN) got %v", plain, nan)
			}
			b = NewBatch(Schema{"a", "b"})
			b.Insert(Row(big, 1))
			b.Insert(Row(big+1, 2))
			b.Insert(Row(big+1, 3))
			if err := apply("R", b); err != nil {
				t.Fatal(err)
			}
			if len(plain) != 3 || fmt.Sprint(lo) != "[1]" || fmt.Sprint(hi) != "[2]" {
				t.Fatalf("2^53 and 2^53+1 as two groups: plain subscriber got %v, OnKey(2^53) %v, OnKey(2^53+1) %v",
					plain, lo, hi)
			}
		})
	}
}
