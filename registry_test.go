package ivm

// Multi-view registry gate: a Registry serving several queries from one
// shared program must be indistinguishable — bitwise — from running one
// independent Engine per query, on the local backend and the
// distributed backend at 1/8/16 workers. Run under -race (make test)
// this also certifies the shared program's per-worker state shares
// nothing. The sharing machinery itself (shape aliasing, sub-plan
// dedup, plan-cache hits) is pinned structurally.

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/tpch"
)

// TestRegistryGoldenTPCH is the multi-view golden gate: Q1, Q3, and Q6
// registered in one Registry over the shared TPC-H base tables must
// produce results bitwise identical to three independent engines fed
// the same stream, on the local backend and at 1/8/16 workers.
func TestRegistryGoldenTPCH(t *testing.T) {
	names := []string{"Q1", "Q3", "Q6"}
	queries := map[string]tpch.Query{}
	union := map[string]Schema{}
	tables := []string{}
	seen := map[string]bool{}
	for _, n := range names {
		q, err := tpch.QueryByName(n)
		if err != nil {
			t.Fatal(err)
		}
		queries[n] = q
		for tbl, sch := range q.BaseSchemas() {
			union[tbl] = sch
		}
		for _, tbl := range q.Tables {
			if !seen[tbl] {
				seen[tbl] = true
				tables = append(tables, tbl)
			}
		}
	}

	backends := []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"w=1", []Option{Distributed(1), KeyRanks(tpch.PrimaryKeyRanks)}},
		{"w=8", []Option{Distributed(8), KeyRanks(tpch.PrimaryKeyRanks)}},
		{"w=16", []Option{Distributed(16), KeyRanks(tpch.PrimaryKeyRanks)}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			reg, err := NewRegistry(union, be.opts...)
			if err != nil {
				t.Fatal(err)
			}
			engines := map[string]*Engine{}
			for _, n := range names {
				if err := reg.Register(n, queries[n].Def); err != nil {
					t.Fatal(err)
				}
				// The independent engine compiles over the same union of
				// base schemas, so both planes deploy the identical program
				// shape per query.
				if engines[n], err = New(n, queries[n].Def, union, be.opts...); err != nil {
					t.Fatal(err)
				}
			}

			gen := tpch.NewGenerator(0.03, 5)
			stream := tpch.NewStream(gen, tables)
			for {
				bs := stream.NextBatches(250)
				if len(bs) == 0 {
					break
				}
				for _, b := range bs {
					if err := reg.ApplyBatch(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
						t.Fatal(err)
					}
					for _, n := range names {
						if err := engines[n].ApplyBatch(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			for _, n := range names {
				res, err := reg.Result(n)
				if err != nil {
					t.Fatal(err)
				}
				requireBitwiseEqual(t, fmt.Sprintf("%s/%s", be.name, n), res.rel, engines[n].Result().rel)
			}
		})
	}
}

// TestRegistryAliasSharesShape pins shape aliasing: registering a
// structurally identical query (renamed variables, reordered join
// factors) compiles nothing new and serves from the same maintained top
// view, and both names observe identical changefeed deltas.
func TestRegistryAliasSharesShape(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	qA := Sum([]string{"k"}, Join(Table("R", "a", "k"), Table("S", "k", "c")))
	// Same plan: factors reordered, variables renamed.
	qB := Sum([]string{"y"}, Join(Table("S", "y", "z"), Table("R", "x", "y")))

	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]Expr{"revenue": qA, "revenue-copy": qB} {
		if err := reg.Register(name, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Shapes(); got != 1 {
		t.Fatalf("structurally identical queries compiled to %d shapes, want 1", got)
	}

	var feedA, feedB []string
	if _, err := reg.Subscribe("revenue", func(d Delta) { feedA = append(feedA, d.String()) }); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Subscribe("revenue-copy", func(d Delta) { feedB = append(feedB, d.String()) }); err != nil {
		t.Fatal(err)
	}

	b := NewBatch(Schema{"a", "k"})
	for i := 0; i < 20; i++ {
		b.Insert(Row(i, i%4))
	}
	s := NewBatch(Schema{"k", "c"})
	for i := 0; i < 12; i++ {
		s.Insert(Row(i%4, i))
	}
	if err := reg.ApplyBatch("R", b); err != nil {
		t.Fatal(err)
	}
	if err := reg.ApplyBatch("S", s); err != nil {
		t.Fatal(err)
	}

	if len(feedA) != 2 || len(feedB) != 2 {
		t.Fatalf("alias feeds delivered %d/%d deltas, want 2/2", len(feedA), len(feedB))
	}
	for i := range feedA {
		if feedA[i] != feedB[i] {
			t.Fatalf("aliased views observed different deltas:\n A %s\n B %s", feedA[i], feedB[i])
		}
	}
	ra, err := reg.Result("revenue")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := reg.Result("revenue-copy")
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqual(t, "alias", rb.rel, ra.rel)
}

// TestRegistrySharedSubPlans pins cross-shape sub-plan dedup: two
// distinct query shapes over the same join maintain the shared join
// component once — the registry's view count is strictly below the sum
// of the two independent programs' — while both results stay bitwise
// identical to independent engines.
func TestRegistrySharedSubPlans(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	join := Join(Table("R", "a", "k"), Table("S", "k", "c"))
	qGrouped := Sum([]string{"k"}, join)
	qTotal := Sum(nil, join)

	independent := 0
	for name, q := range map[string]Expr{"G": qGrouped, "T": qTotal} {
		prog, err := compile.Compile(name, q, bases, compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		independent += len(prog.Views)
	}

	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{}
	for name, q := range map[string]Expr{"grouped": qGrouped, "total": qTotal} {
		if err := reg.Register(name, q); err != nil {
			t.Fatal(err)
		}
		if engines[name], err = New(name, q, bases); err != nil {
			t.Fatal(err)
		}
	}
	if reg.SharedViews() >= independent {
		t.Fatalf("no sub-plan sharing: registry maintains %d views, independent programs %d",
			reg.SharedViews(), independent)
	}

	for round := 0; round < 5; round++ {
		br := NewBatch(Schema{"a", "k"})
		bs := NewBatch(Schema{"k", "c"})
		for i := 0; i < 15; i++ {
			br.Insert(Row(round*100+i, i%6))
			bs.Insert(Row(i%6, round*10+i))
		}
		tx := reg.NewTx()
		tx.Put("R", &Batch{rel: br.rel.Clone()})
		tx.Put("S", &Batch{rel: bs.rel.Clone()})
		if err := reg.Apply(tx); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			etx := e.NewTx()
			etx.Put("R", &Batch{rel: br.rel.Clone()})
			etx.Put("S", &Batch{rel: bs.rel.Clone()})
			if err := e.Apply(etx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, e := range engines {
		res, err := reg.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, name, res.rel, e.Result().rel)
	}
}

// multiViewQuery builds one of four overlapping query shapes over
// R(a,k) ⋈ S(k,c), with variable names salted by the copy index, so
// copies of a shape canonicalize to one plan although no two are written
// with the same variables.
func multiViewQuery(shape, copyIdx int) Expr {
	a := fmt.Sprintf("a_%d", copyIdx)
	k := fmt.Sprintf("k_%d", copyIdx)
	c := fmt.Sprintf("c_%d", copyIdx)
	join := Join(Table("R", a, k), Table("S", k, c))
	switch shape % 4 {
	case 0: // per-key join count
		return Sum([]string{k}, join)
	case 1: // total join count
		return Sum(nil, join)
	case 2: // per-key filtered revenue
		return Sum([]string{k}, Join(
			Table("R", a, k), Table("S", k, c),
			Cond(Lt, Col(a), Col(c)),
			Val(Mul2(Col(a), Col(c))),
		))
	default: // per-(key,code) count
		return Sum([]string{k, c}, join)
	}
}

// TestRegistrySharedWork pins what serving overlapping views from one
// shared program buys: 16 views (4 shapes x 4 variable-renamed copies)
// over 20 rounds of 300 R and 180 S inserts cost the registry at most
// half the evaluation work (lookups + scans + emits + index builds) of
// 16 independent engines fed the same stream. Work counts are exact, so
// the ratio repeats on any host.
func TestRegistrySharedWork(t *testing.T) {
	const (
		nViews  = 16
		rounds  = 20
		perR    = 300
		perS    = 180
		keyCard = 32
	)
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	feed := func(newTx func() *Tx, apply func(*Tx) error) {
		for i := 0; i < rounds; i++ {
			tx := newTx()
			for j := 0; j < perR; j++ {
				v := i*perR + j
				if err := tx.Insert("R", Row(v%977, v%keyCard)); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < perS; j++ {
				v := i*perS + j
				if err := tx.Insert("S", Row(v%keyCard, v%41)); err != nil {
					t.Fatal(err)
				}
			}
			if err := apply(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	work := func(st Stats) int64 { return st.Lookups + st.Scans + st.Emits + st.IndexOps }

	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	var independent int64
	for i := 0; i < nViews; i++ {
		if err := reg.Register(fmt.Sprintf("V%d", i), multiViewQuery(i, i)); err != nil {
			t.Fatal(err)
		}
		e, err := New(fmt.Sprintf("V%d", i), multiViewQuery(i, i), bases)
		if err != nil {
			t.Fatal(err)
		}
		feed(e.NewTx, e.Apply)
		independent += work(e.Stats())
	}
	feed(reg.NewTx, reg.Apply)
	st, err := reg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	shared := work(st)
	ratio := float64(independent) / float64(shared)
	t.Logf("work: 16 independent engines %d, shared registry %d: %.2fx", independent, shared, ratio)
	if ratio < 2 {
		t.Fatalf("shared registry saved only %.2fx work over independent engines (%d vs %d), want >= 2x",
			ratio, independent, shared)
	}
}

// TestRegistryRegisterAfterBuild pins the build boundary: once the
// shared program is serving, further registrations are rejected with an
// error (not a silent no-op).
func TestRegistryRegisterAfterBuild(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "k"}}
	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("q", Sum([]string{"k"}, Table("R", "a", "k"))); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(Schema{"a", "k"})
	b.Insert(Row(1, 2))
	if err := reg.ApplyBatch("R", b); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("late", Sum(nil, Table("R", "a", "k"))); err == nil {
		t.Fatal("Register after first transaction succeeded, want error")
	}
	if _, err := reg.Result("nosuch"); err == nil {
		t.Fatal("Result on unknown view succeeded, want error")
	}
}
