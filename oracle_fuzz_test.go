package ivm

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
)

// oracleShapes are the query shapes FuzzOracleAgreement draws from, over
// R(a,b) and S(b,c): a join, a repeated column, a correlated scalar lift
// under a comparison, Exists, a union with a negated term, and a grouped
// lift.
var oracleShapes = []Expr{
	Sum([]string{"a"}, Join(Table("R", "a", "b"), Table("S", "b", "c"))),
	Sum([]string{"x", "c"}, Join(Table("R", "x", "x"), Table("S", "x", "c"))),
	Sum([]string{"a"}, Join(Table("R", "a", "b"),
		Lift("n", Sum(nil, Join(Table("S", "b2", "c"), Cond(Eq, Col("b2"), Col("b"))))),
		Cond(Lt, Col("a"), Col("n")))),
	Sum([]string{"b"}, Exists(Sum([]string{"a", "b"}, Join(Table("R", "a", "b"), Table("S", "b", "c"))))),
	Sum([]string{"b"}, Union(Sum([]string{"b"}, Table("R", "a", "b")),
		expr.Neg(Sum([]string{"b"}, Table("S", "b", "c"))))),
	Sum([]string{"n"}, Join(Lift("n", Sum([]string{"b"}, Table("R", "a", "b"))), Table("S", "b", "c"))),
}

// fuzzOp encodes one update for FuzzOracleAgreement: a change of mult
// (one of 1, -1, 2, -2) to (x, y) in R or S, optionally ending the
// transaction.
func fuzzOp(s string, mult, x, y int, end bool) []byte {
	b := byte(map[int]byte{1: 0, -1: 2, 2: 4, -2: 6}[mult])
	if s == "S" {
		b |= 1
	}
	if end {
		b |= 8
	}
	return []byte{b, byte(x), byte(y)}
}

// FuzzOracleAgreement feeds a short stream of inserts and deletes, with
// cancelling multiplicities over a small domain, to a local engine and
// two Distributed(2) engines, one without key ranks and one partitioning
// views and batches on ranked keys, maintaining one of oracleShapes
// (chosen by the first byte). A transaction's tables are put in the order its ops first
// touch them, which picks the distributed program it runs, so an input
// replays exactly. After every transaction both results must equal the
// oracle's evaluation of the query over the accumulated base tables.
func FuzzOracleAgreement(f *testing.F) {
	seed := func(shape byte, ops ...[]byte) {
		data := []byte{shape}
		for _, op := range ops {
			data = append(data, op...)
		}
		f.Add(data)
	}
	seed(0, fuzzOp("R", 1, 1, 2, false), fuzzOp("S", 2, 2, 0, true), fuzzOp("R", -1, 1, 2, false),
		fuzzOp("R", 1, 0, 2, true), fuzzOp("S", -2, 2, 0, true))
	seed(1, fuzzOp("R", 1, 1, 1, false), fuzzOp("R", 1, 1, 2, false), fuzzOp("S", 1, 1, 0, true),
		fuzzOp("R", 2, 2, 1, false), fuzzOp("S", 1, 2, 2, true), fuzzOp("R", -1, 1, 1, true))
	seed(2, fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 1, 2, 1, false), fuzzOp("S", 1, 1, 0, true),
		fuzzOp("S", 2, 1, 2, true), fuzzOp("S", -1, 1, 0, false), fuzzOp("R", -1, 0, 1, true))
	seed(3, fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 2, 2, 1, false), fuzzOp("S", 1, 1, 0, true),
		fuzzOp("S", -1, 1, 0, true), fuzzOp("S", 1, 1, 2, true))
	seed(4, fuzzOp("R", 1, 0, 1, false), fuzzOp("S", 1, 1, 0, true), fuzzOp("S", 2, 2, 2, false),
		fuzzOp("R", -1, 0, 1, true), fuzzOp("R", 2, 1, 2, true))
	seed(5, fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 1, 1, 1, false), fuzzOp("S", 1, 1, 0, true),
		fuzzOp("R", 1, 2, 2, false), fuzzOp("S", 1, 2, 1, true), fuzzOp("R", -1, 1, 1, true))
	// S-first transactions, so both first-touch orders are seeded.
	seed(0, fuzzOp("S", 2, 2, 0, false), fuzzOp("R", 1, 1, 2, true), fuzzOp("S", 1, 1, 1, false),
		fuzzOp("R", -1, 1, 2, false), fuzzOp("R", 1, 0, 1, true))
	seed(2, fuzzOp("S", 1, 1, 0, false), fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 1, 2, 1, true),
		fuzzOp("S", -1, 1, 0, false), fuzzOp("R", 2, 1, 1, true))
	seed(5, fuzzOp("S", 1, 1, 0, false), fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 1, 1, 1, true),
		fuzzOp("S", 1, 2, 1, false), fuzzOp("R", 1, 2, 2, true))
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := oracleShapes[int(data[0])%len(oracleShapes)]
		local, err := New("Q", q, bases)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := New("Q", q, bases, Distributed(2))
		if err != nil {
			t.Fatal(err)
		}
		keyed, err := New("Q", q, bases, Distributed(2), KeyRanks(map[string]int{"a": 2, "b": 3, "c": 2, "x": 3}))
		if err != nil {
			t.Fatal(err)
		}
		accum := map[string]*mring.Relation{"R": mring.NewRelation(bases["R"]), "S": mring.NewRelation(bases["S"])}
		tx := map[string]*mring.Relation{}
		var order []string // tx's tables in first-touch order
		ops := data[1:]
		for i := 0; i+3 <= len(ops) && i < 3*48; i += 3 {
			b := ops[i]
			table := []string{"R", "S"}[b&1]
			if tx[table] == nil {
				tx[table] = mring.NewRelation(bases[table])
				order = append(order, table)
			}
			tx[table].Add(Row(int(ops[i+1])%3, int(ops[i+2])%3), []float64{1, -1, 2, -2}[b>>1&3])
			if b&8 == 0 && i+6 <= len(ops) {
				continue
			}
			for _, e := range []*Engine{local, dist, keyed} {
				etx := e.NewTx()
				for _, n := range order {
					if err := etx.Put(n, &Batch{rel: tx[n].Clone()}); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Apply(etx); err != nil {
					t.Fatal(err)
				}
			}
			for n, r := range tx {
				accum[n].Merge(r)
			}
			tx, order = map[string]*mring.Relation{}, nil
			want := baseline.Eval(q, baseline.Of(accum))
			for name, e := range map[string]*Engine{"local": local, "distributed2": dist, "keyed2": keyed} {
				if d := baseline.Diff(e.Result().rel, want); d != "" {
					t.Fatalf("%s after op %d of %v: %s", name, i/3, q, d)
				}
			}
		}
	})
}
