package ivm

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
)

// oracleShapes are the query shapes FuzzOracleAgreement draws from, over
// R(a,b) and S(b,c): a join, a repeated column, a correlated scalar lift
// under a comparison, Exists, a union with a negated term, a grouped
// lift, and two with a value term over one column, which the batch
// pre-aggregate multiplies in: alone, and in a join. The term is
// [1 / col], at most 1 in magnitude (0 at col = 0), so sums taken in any
// order agree within baseline.Diff's tolerance even over wide keys.
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
	Sum([]string{"b"}, Join(Table("R", "a", "b"), Val(Div(ConstI(1), Col("a"))))),
	Sum([]string{"a"}, Join(Table("R", "a", "b"), Table("S", "b", "c"), Val(Div(ConstI(1), Col("c"))))),
}

// fuzzKeys are the wide keys an op's value byte of edgeKey or more
// picks: integers either side of float64's exact range and at the top of
// int64, and floats that some of them round to.
var fuzzKeys = []Value{Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1),
	Int(math.MaxInt64 - 1), Int(math.MaxInt64), Float(1 << 63), Float(1 << 53)}

const edgeKey = 0x80

// fuzzKey decodes one value of an op: a byte below edgeKey is a small
// integer, so rows collide and cancel often, and any other byte one of
// fuzzKeys.
func fuzzKey(b byte) Value {
	if b < edgeKey {
		return Int(int64(b % 3))
	}
	return fuzzKeys[int(b-edgeKey)%len(fuzzKeys)]
}

// fuzzOp encodes one update for FuzzOracleAgreement: a change of mult
// (one of 1, -1, 2, -2) to (fuzzKey(x), fuzzKey(y)) in R or S, optionally
// ending the transaction.
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
// cancelling multiplicities over a small domain and wide keys (fuzzKey),
// to a local engine and two Distributed(2) engines, one without key
// ranks and one partitioning views and batches on ranked keys,
// maintaining one of oracleShapes (chosen by the first byte). A
// transaction's tables are put in the order its ops first touch them,
// which picks the distributed program it runs, so an input replays
// exactly. After every transaction every result must equal the oracle's
// evaluation of the query over the accumulated base tables.
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
	// Wide keys as group keys, as join keys and as a repeated column:
	// 2^53 and 2^53+1, MaxInt64-1 and MaxInt64, and MaxInt64 and
	// Float(2^63) are distinct keys, while Float(2^53) is Int(2^53).
	w := func(i int) int { return edgeKey + i }
	seed(0, fuzzOp("R", 1, w(1), 0, false), fuzzOp("R", 1, w(2), 0, false), fuzzOp("R", 2, w(3), 0, false),
		fuzzOp("R", 1, w(4), 0, false), fuzzOp("R", 1, w(5), 0, false), fuzzOp("S", 1, 0, 1, true),
		fuzzOp("R", -1, w(2), 0, true), fuzzOp("R", -2, w(3), 0, false), fuzzOp("S", 1, 0, 2, true))
	seed(0, fuzzOp("R", 1, 0, w(1), false), fuzzOp("R", 1, 1, w(2), false), fuzzOp("S", 1, w(6), 0, false),
		fuzzOp("S", 1, w(2), 1, false), fuzzOp("S", 1, w(0), 2, true), fuzzOp("R", 1, 2, w(4), false),
		fuzzOp("S", 1, w(5), 0, false), fuzzOp("S", 2, w(3), 1, true))
	seed(1, fuzzOp("R", 1, w(1), w(1), false), fuzzOp("R", 1, w(1), w(2), false), fuzzOp("R", 1, w(4), w(5), false),
		fuzzOp("R", 1, w(4), w(4), false), fuzzOp("S", 1, w(6), 0, false), fuzzOp("S", 1, w(4), 1, true))
	seed(4, fuzzOp("R", 1, 0, w(1), false), fuzzOp("R", 1, 0, w(2), false), fuzzOp("S", 1, w(6), 0, false),
		fuzzOp("S", 1, w(3), 0, false), fuzzOp("R", 1, 1, w(4), true))
	// Value terms: rows of one group whose multiplicities cancel while
	// their terms do not (R(1,0) +1 and R(2,0) -1 in one batch), a
	// delete of a row an earlier batch inserted, and a wide key as the
	// term's column.
	seed(6, fuzzOp("R", 1, 1, 0, false), fuzzOp("R", -1, 2, 0, false), fuzzOp("R", 2, 2, 1, true),
		fuzzOp("R", -2, 2, 1, false), fuzzOp("R", 1, 0, 1, false), fuzzOp("R", 1, w(1), 1, true))
	seed(7, fuzzOp("R", 1, 0, 1, false), fuzzOp("S", 1, 1, 1, false), fuzzOp("S", -1, 1, 2, true),
		fuzzOp("S", 2, 1, 2, false), fuzzOp("R", 1, 2, 1, true), fuzzOp("S", -1, 1, 1, false),
		fuzzOp("S", 1, 1, w(3), true))
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
		// The oracle reads every change as a plain row, so rows that the
		// engine's storage would merge reach it apart.
		accum := map[string]baseline.Rows{"R": nil, "S": nil}
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
			row, m := Tuple{fuzzKey(ops[i+1]), fuzzKey(ops[i+2])}, []float64{1, -1, 2, -2}[b>>1&3]
			tx[table].Add(row, m)
			accum[table] = append(accum[table], baseline.Row{Tuple: row, M: m})
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
