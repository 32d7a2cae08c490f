package ivm

// Stats snapshots against concurrent Apply, and the probe cost the
// engine's counters report.

import (
	"sync"
	"testing"
)

// TestStatsApplyRace is the regression test for the snapshot race:
// Stats, Result, and Metrics hammered concurrently with Apply must be
// clean under -race (make test) and must not perturb results, on the
// local and on the distributed backend. A subscriber makes every commit
// fold its delta into the distributed read cache, which the Results
// being read share until the commit copies it.
func TestStatsApplyRace(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	q := Sum([]string{"a"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	const rounds = 250
	feed := func(e *Engine) error {
		for i := 0; i < rounds; i++ {
			tx := e.NewTx()
			if err := tx.Insert("R", Row(i%17, i%13)); err != nil {
				return err
			}
			if err := tx.Insert("S", Row(i%13, i%29)); err != nil {
				return err
			}
			if err := e.Apply(tx); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"untuned", nil},
		{"distributed", []Option{Distributed(4), KeyRanks(map[string]int{"a": 3, "b": 2})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New("Q", q, bases, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Subscribe(func(Delta) {}); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = e.Stats().Workers
						e.Result().Foreach(func(Tuple, float64) {})
						_ = e.Metrics()
					}
				}()
			}
			err = feed(e)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New("Q", q, bases)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed(ref); err != nil {
				t.Fatal(err)
			}
			if got, want := e.Result().rel, ref.Result().rel; !got.Equal(want) {
				t.Fatalf("concurrent observation perturbed the result\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestRegistryStatsApplyRace repeats the snapshot hammer on a Registry:
// its Stats/Result paths share the serving core but build lazily, so the
// first concurrent use is its own race candidate.
func TestRegistryStatsApplyRace(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}}
	r, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("bySum", Sum([]string{"a"}, Table("R", "a", "b"))); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("all", Sum([]string{"a", "b"}, Table("R", "a", "b"))); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Stats(); err != nil {
					return
				}
				if _, err := r.Result("bySum"); err != nil {
					return
				}
			}
		}()
	}
	var feedErr error
	for i := 0; i < 250; i++ {
		tx := r.NewTx()
		if feedErr = tx.Insert("R", Row(i%11, i%7)); feedErr != nil {
			break
		}
		if feedErr = r.Apply(tx); feedErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	res, err := r.Result("bySum")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("bySum has %d groups, want 11", res.Len())
	}
}

// TestProbeCostIndependentOfView pins the constant-cost probe (Sec.
// 5.1). The program for S ⋈ R keeps an auxiliary view over R whose slice
// index on b is maintained by every R insert and probed only by S
// inserts. After a long R-only phase that grows the view to 10k tuples,
// one S row must still cost an index probe, not a scan of the view.
func TestProbeCostIndependentOfView(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	q := Sum([]string{"a"}, Join(Table("S", "b", "c"), Table("R", "a", "b")))
	e, err := New("Q", q, bases)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(table string, rows ...Tuple) {
		tx := e.NewTx()
		for _, r := range rows {
			if err := tx.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}

	apply("S", Row(0, 1))
	for i := 0; i < 160; i++ {
		rows := make([]Tuple, 64)
		for j := range rows {
			k := i*64 + j
			rows[j] = Row(k, k)
		}
		apply("R", rows...)
	}
	before := e.Stats().Scans
	apply("S", Row(5, 2))
	if d := e.Stats().Scans - before; d > 8 {
		t.Errorf("one S row scanned %d tuples over a %d-row R view, want an index probe (≤ 8)", d, 160*64)
	}
	if n := e.Result().Len(); n != 2 {
		t.Fatalf("result has %d groups, want 2 (a = 0 and a = 5)", n)
	}
}
