package ivm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tpch"
)

func TestEngineQuickstart(t *testing.T) {
	q := Sum([]string{"b"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	eng, err := New("Q", q, map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	br := NewBatch(Schema{"a", "b"})
	br.Insert(Row(1, 10))
	br.Insert(Row(2, 10))
	if err := eng.ApplyBatch("R", br); err != nil {
		t.Fatal(err)
	}
	bs := NewBatch(Schema{"b", "c"})
	bs.Insert(Row(10, 7))
	if err := eng.ApplyBatch("S", bs); err != nil {
		t.Fatal(err)
	}
	if got := eng.Result().Get(Row(10)); got != 2 {
		t.Fatalf("result = %g, want 2", got)
	}
	// Deletion retracts.
	del := NewBatch(Schema{"a", "b"})
	del.Delete(Row(1, 10))
	if err := eng.ApplyBatch("R", del); err != nil {
		t.Fatal(err)
	}
	if got := eng.Result().Get(Row(10)); got != 1 {
		t.Fatalf("after delete = %g, want 1", got)
	}
}

func TestEngineMultiTableTx(t *testing.T) {
	q := Sum([]string{"b"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	eng, err := New("Q", q, map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewTx()
	for _, err := range []error{
		tx.Insert("R", Row(1, 10)),
		tx.Insert("R", Row(2, 10)),
		tx.Insert("S", Row(10, 7)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := tx.Len(); got != 3 {
		t.Fatalf("tx.Len = %d, want 3", got)
	}
	if got := tx.Tables(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("tx.Tables = %v, want [R S]", got)
	}
	if err := eng.Apply(tx); err != nil {
		t.Fatal(err)
	}
	if got := eng.Result().Get(Row(10)); got != 2 {
		t.Fatalf("result after tx = %g, want 2", got)
	}
}

func TestEngineNestedAndOptions(t *testing.T) {
	inner := Sum(nil, Join(Table("S", "b2", "c"), Cond(Eq, Col("b"), Col("b2"))))
	q := Sum(nil, Join(
		Table("R", "a", "b"),
		Lift("x", inner),
		Cond(Lt, Col("a"), Col("x"))))
	eng, err := New("QN", q,
		map[string]Schema{"R": {"a", "b"}, "S": {"b2", "c"}},
		CompileOptions(Options{DomainExtraction: true}))
	if err != nil {
		t.Fatal(err)
	}
	br := NewBatch(Schema{"a", "b"})
	br.Insert(Row(0, 5))
	eng.ApplyBatch("R", br)
	bs := NewBatch(Schema{"b2", "c"})
	bs.Insert(Row(5, 1))
	eng.ApplyBatch("S", bs)
	if got := eng.Result().Get(Row()); got != 1 {
		t.Fatalf("nested result = %g, want 1", got)
	}
	if eng.Program().String() == "" {
		t.Fatal("program rendering empty")
	}
	if eng.TriggerProgram("R") == "" {
		t.Fatal("local trigger rendering empty")
	}
}

func TestEngineWarm(t *testing.T) {
	q := Sum(nil, Join(Table("R", "a"), Val(Col("a"))))
	eng, err := New("QL", q, map[string]Schema{"R": {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	init := NewBatch(Schema{"a"})
	init.Insert(Row(4))
	if err := eng.Warm(map[string]*Batch{"R": init}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Result().Get(Row()); got != 4 {
		t.Fatalf("warm start = %g, want 4", got)
	}
	if err := eng.Warm(map[string]*Batch{"X": init}); err == nil ||
		!strings.Contains(err.Error(), `unknown table "X"`) {
		t.Fatalf("Warm(unknown table) = %v, want descriptive error", err)
	}
	if err := eng.Warm(map[string]*Batch{"R": nil}); err == nil ||
		!strings.Contains(err.Error(), "nil initial batch") {
		t.Fatalf("Warm(nil batch) = %v, want descriptive error", err)
	}
}

func TestNewOptionValidation(t *testing.T) {
	q := Sum([]string{"a"}, Table("R", "a"))
	bases := map[string]Schema{"R": {"a"}}
	if _, err := New("Q", q, bases, Distributed(0)); err == nil {
		t.Fatal("Distributed(0) accepted, want error")
	}
}

func TestApplyUnknownTableErrors(t *testing.T) {
	q := Sum([]string{"b"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	for _, opts := range [][]Option{nil, {Distributed(2), KeyRanks(map[string]int{"b": 2})}} {
		eng, err := New("Q", q, bases, opts...)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(Schema{"x"})
		err = eng.ApplyBatch("nope", b)
		if err == nil {
			t.Fatal("ApplyBatch on unknown table accepted, want error")
		}
		if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "R, S") {
			t.Fatalf("unknown-table error not descriptive: %v", err)
		}
		// Arity mismatch between batch and table schema.
		bad := NewBatch(Schema{"a"})
		bad.Insert(Row(1))
		if err := eng.ApplyBatch("R", bad); err == nil ||
			!strings.Contains(err.Error(), "arity") {
			t.Fatalf("arity-mismatched batch accepted: %v", err)
		}
	}
}

func TestBatchArityValidation(t *testing.T) {
	b := NewBatch(Schema{"a", "b"})
	if err := b.Insert(Row(1)); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := b.Change(Row(1, 2, 3), 2); err == nil {
		t.Fatal("long tuple accepted")
	}
	if err := b.Delete(Row(1, 2)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("rejected tuples were stored: Len = %d, want 1", b.Len())
	}
}

func TestTxUnknownTable(t *testing.T) {
	q := Sum([]string{"a"}, Table("R", "a"))
	eng, err := New("Q", q, map[string]Schema{"R": {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewTx()
	if err := tx.Insert("S", Row(1)); err == nil ||
		!strings.Contains(err.Error(), `unknown table "S"`) {
		t.Fatalf("engine-bound tx accepted unknown table: %v", err)
	}
	standalone := NewTx()
	if err := standalone.Insert("R", Row(1)); err == nil {
		t.Fatal("standalone tx materialized a batch without a schema")
	}
	// Apply rejects a tx carrying a table the engine does not have.
	foreign := NewTx()
	foreign.Put("S", NewBatch(Schema{"x"}))
	if err := eng.Apply(foreign); err == nil {
		t.Fatal("Apply accepted tx with unknown table")
	}
}

func TestTxPutValidation(t *testing.T) {
	tx := NewTx()
	if err := tx.Put("R", nil); err == nil {
		t.Fatal("nil batch accepted")
	}
	good := NewBatch(Schema{"a", "b"})
	good.Insert(Row(1, 2))
	if err := tx.Put("R", good); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("R", NewBatch(Schema{"x"})); err == nil {
		t.Fatal("schema-mismatched merge accepted")
	}
	more := NewBatch(Schema{"a", "b"})
	more.Insert(Row(3, 4))
	if err := tx.Put("R", more); err != nil {
		t.Fatal(err)
	}
	if got := tx.Len(); got != 2 {
		t.Fatalf("tx.Len after merge = %d, want 2", got)
	}
}

// TestSubscribeMidStream pins the lazy-capture contract: an engine with
// no subscribers pays no capture work and the feed covers exactly the
// transactions applied while subscribed.
func TestSubscribeMidStream(t *testing.T) {
	q := Sum([]string{"b"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	for _, opts := range [][]Option{nil, {Distributed(4), KeyRanks(map[string]int{"b": 2})}} {
		eng, err := New("Q", q, bases, opts...)
		if err != nil {
			t.Fatal(err)
		}
		apply := func(vals ...int) {
			tx := eng.NewTx()
			for _, v := range vals {
				if err := tx.Insert("R", Row(v, 10)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Insert("S", Row(10, 7)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Apply(tx); err != nil {
				t.Fatal(err)
			}
		}
		apply(1, 2) // unsubscribed: no capture
		var got []string
		cancel, _ := eng.Subscribe(func(d Delta) { got = append(got, d.String()) })
		apply(3) // subscribed: captured
		cancel()
		apply(4) // unsubscribed again
		if len(got) != 1 {
			t.Fatalf("feed delivered %d deltas, want 1 (only the subscribed tx): %v", len(got), got)
		}
		// Delta #3 covers only the third transaction's change (+1 from
		// the new R row; the S row re-inserted each tx adds one join
		// partner per prior R row too).
		if want := eng.Result().Get(Row(10)); want == 0 {
			t.Fatal("result empty after four transactions")
		}
	}
}

func TestRowE(t *testing.T) {
	tup, err := RowE(int32(1), float32(2.5), uint(3), int64(-4), "x", Int(7))
	if err != nil {
		t.Fatal(err)
	}
	want := Tuple{Int(1), Float(2.5), Int(3), Int(-4), Str("x"), Int(7)}
	if len(tup) != len(want) {
		t.Fatalf("arity %d, want %d", len(tup), len(want))
	}
	for i := range want {
		if !tup[i].Equal(want[i]) {
			t.Fatalf("position %d: %v, want %v", i, tup[i], want[i])
		}
	}
	if _, err := RowE(struct{}{}); err == nil {
		t.Fatal("unsupported type accepted")
	}
	if _, err := RowE(uint64(math.MaxUint64)); err == nil {
		t.Fatal("overflowing uint64 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Row did not panic on unsupported type")
		}
	}()
	Row(struct{}{})
}

func TestDistributedTPCHKeyRanks(t *testing.T) {
	// The exported workload key ranks drive partitioning without panics.
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New("Q3", q.Def, q.BaseSchemas(), Distributed(3), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(tpch.Schemas[tpch.Customer])
	b.Insert(Row(1, 1, 2, 100.0, 13))
	if err := eng.ApplyBatch(tpch.Customer, b); err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().Latency <= 0 {
		t.Fatal("platform metrics not accumulated")
	}
	if eng.LastMetrics().Latency <= 0 {
		t.Fatal("last-transaction metrics empty")
	}
}

// TestRepeatedColumnSelfJoin pins that a variable repeated within one
// relational term is a self-equality on every backend: Sum_[x](R(x,x))
// counts only R's rows whose two columns are equal.
func TestRepeatedColumnSelfJoin(t *testing.T) {
	q := Sum([]string{"x"}, Table("R", "x", "x"))
	for _, c := range []struct {
		name string
		opts []Option
	}{{"local", nil}, {"distributed2", []Option{Distributed(2)}}} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := New("Q", q, map[string]Schema{"R": {"a", "b"}}, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			b := NewBatch(Schema{"a", "b"})
			b.Insert(Row(1, 1))
			b.Insert(Row(1, 2))
			if err := eng.ApplyBatch("R", b); err != nil {
				t.Fatal(err)
			}
			if res := eng.Result(); res.Len() != 1 || res.Get(Row(1)) != 1 {
				t.Fatalf("result %v, want {(1)->1}", res)
			}
		})
	}
}
