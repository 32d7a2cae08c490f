package pool

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/mring"
)

// The kernel property tests pin every vectorized primitive to its
// row-wise oracle: FilterPred to expr.EvalCmp over materialized row
// values, HashSel to Tuple.HashCols, FloatsSel to Value.AsFloat, and
// FoldSel to a tuple-at-a-time group-table fold. Batches draw from the
// identity edge cases — NaN floats, integers beyond 2^53, negative
// zero, and strings that parse as numbers — and selections include
// empty and single-row vectors.

var predCmpOps = [...]expr.CmpOp{
	PEq: expr.CEq, PNe: expr.CNe, PLt: expr.CLt,
	PLe: expr.CLe, PGt: expr.CGt, PGe: expr.CGe,
}

// randomKernelBatch builds a batch with fixed column kinds
// (int, float, string) over adversarial values.
func randomKernelBatch(rng *rand.Rand, n int) *ColBatch {
	schema := mring.Schema{"i", "f", "s"}
	kinds := []mring.Kind{mring.KInt, mring.KFloat, mring.KString}
	b := NewColBatch(schema, kinds)
	for r := 0; r < n; r++ {
		var iv int64
		switch rng.Intn(4) {
		case 0:
			iv = int64(rng.Intn(7)) - 3
		case 1:
			iv = (int64(1) << 53) + int64(rng.Intn(3)) // beyond float64 exactness
		case 2:
			iv = -((int64(1) << 53) + int64(rng.Intn(3)))
		default:
			iv = int64(rng.Intn(100))
		}
		var fv float64
		switch rng.Intn(5) {
		case 0:
			fv = math.NaN()
		case 1:
			fv = math.Copysign(0, -1)
		case 2:
			fv = float64(rng.Intn(7)) - 3
		case 3:
			fv = math.Inf(1 - 2*rng.Intn(2))
		default:
			fv = float64(rng.Intn(9))/4 - 1
		}
		var sv string
		switch rng.Intn(3) {
		case 0:
			sv = fmt.Sprintf("k%d", rng.Intn(4))
		case 1:
			sv = fmt.Sprintf("%d", rng.Intn(5)) // parses as a number
		default:
			sv = ""
		}
		m := float64(rng.Intn(9) - 4)
		b.Append(mring.Tuple{mring.Int(iv), mring.Float(fv), mring.Str(sv)}, m)
	}
	return b
}

// randomLit draws a literal spanning all kinds, including NaN and
// beyond-2^53 values that sit on the int/float comparison edge.
func randomLit(rng *rand.Rand) mring.Value {
	switch rng.Intn(7) {
	case 0:
		return mring.Int(int64(rng.Intn(7)) - 3)
	case 1:
		return mring.Int((int64(1) << 53) + int64(rng.Intn(3)))
	case 2:
		return mring.Float(math.NaN())
	case 3:
		return mring.Float(float64(rng.Intn(9))/4 - 1)
	case 4:
		return mring.Float(float64((int64(1) << 53) + 1))
	case 5:
		return mring.Str(fmt.Sprintf("k%d", rng.Intn(4)))
	default:
		return mring.Str(fmt.Sprintf("%d", rng.Intn(5)))
	}
}

// randomSel draws nil (all rows), an empty selection, or a random
// ascending subset.
func randomSel(rng *rand.Rand, n int) Sel {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return Sel{}
	default:
		var s Sel
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				s = append(s, int32(i))
			}
		}
		return s
	}
}

func selRows(b *ColBatch, sel Sel) []int32 {
	if sel != nil {
		return sel
	}
	all := NewSel(b.Len())
	return all
}

func TestFilterPredMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		b := randomKernelBatch(rng, rng.Intn(24))
		p := Pred{
			Col: rng.Intn(3),
			Op:  PredOp(rng.Intn(6)),
			Lit: randomLit(rng),
		}
		sel := randomSel(rng, b.Len())
		var want []int32
		for _, i := range selRows(b, sel) {
			row, _ := b.Row(int(i))
			if expr.EvalCmp(predCmpOps[p.Op], row[p.Col], p.Lit) {
				want = append(want, i)
			}
		}
		cp := sel
		if sel != nil { // copy, preserving nil-vs-empty
			cp = append(make(Sel, 0, len(sel)), sel...)
		}
		got := b.FilterPred(p, cp)
		if len(got) != len(want) {
			t.Fatalf("round %d pred=%+v sel=%v: %d survivors, oracle %d",
				round, p, sel, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("round %d pred=%+v: survivor %d is row %d, oracle row %d",
					round, p, k, got[k], want[k])
			}
		}
	}
}

// TestFilterPredRefinesInPlace pins the no-allocation contract: the
// survivors land in the prefix of the selection passed in.
func TestFilterPredRefinesInPlace(t *testing.T) {
	b := NewColBatch(mring.Schema{"x"}, []mring.Kind{mring.KInt})
	for i := 0; i < 10; i++ {
		b.Append(mring.Tuple{mring.Int(int64(i))}, 1)
	}
	sel := NewSel(10)
	out := b.FilterPred(Pred{Col: 0, Op: PGe, Lit: mring.Int(5)}, sel)
	if &out[0] != &sel[0] {
		t.Fatalf("FilterPred allocated a new selection")
	}
	if len(out) != 5 || out[0] != 5 || out[4] != 9 {
		t.Fatalf("survivors = %v, want [5..9]", out)
	}
}

func TestFloatsSelMatchesAsFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 200; round++ {
		b := randomKernelBatch(rng, rng.Intn(20))
		col := rng.Intn(3)
		rows := selRows(b, nil)
		sel := randomSel(rng, b.Len())
		if sel == nil {
			sel = rows
		}
		var dst []float64
		if rng.Intn(2) == 0 {
			dst = make([]float64, rng.Intn(30)) // exercise reuse/regrow
		}
		got := b.FloatsSel(col, sel, dst)
		if len(got) != len(sel) {
			t.Fatalf("round %d: %d values for %d selected rows", round, len(got), len(sel))
		}
		for k, i := range sel {
			row, _ := b.Row(int(i))
			want := row[col].AsFloat()
			if got[k] != want && !(math.IsNaN(got[k]) && math.IsNaN(want)) {
				t.Fatalf("round %d col %d row %d: %v, AsFloat oracle %v",
					round, col, i, got[k], want)
			}
		}
	}
}

func TestMultsSelGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randomKernelBatch(rng, 16)
	sel := Sel{1, 5, 11}
	got := b.MultsSel(sel, nil)
	for k, i := range sel {
		if got[k] != b.Mults[i] {
			t.Fatalf("MultsSel[%d] = %g, want %g", k, got[k], b.Mults[i])
		}
	}
	if got := b.MultsSel(Sel{}, nil); len(got) != 0 {
		t.Fatalf("empty selection gathered %v", got)
	}
}

func TestHashSelMatchesRowHashCols(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		b := randomKernelBatch(rng, rng.Intn(20))
		var pos []int
		for i := 0; i < 3; i++ {
			if rng.Intn(2) == 0 {
				pos = append(pos, i)
			}
		}
		sel := randomSel(rng, b.Len())
		hs := b.HashSel(pos, sel)
		rows := selRows(b, sel)
		if len(hs) != len(rows) {
			t.Fatalf("round %d: %d hashes for %d rows", round, len(hs), len(rows))
		}
		for k, i := range rows {
			row, _ := b.Row(int(i))
			if want := row.HashCols(pos); hs[k] != want {
				t.Fatalf("round %d pos=%v row %d: hash %x, row-wise %x",
					round, pos, i, hs[k], want)
			}
		}
	}
}

// TestFoldSelMatchesRowFold pins the full kernel chain — hash, gather,
// fold — to a tuple-at-a-time fold of the same rows in the same order,
// bit for bit, including under forced hash collisions.
func TestFoldSelMatchesRowFold(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			for round := 0; round < 150; round++ {
				b := randomKernelBatch(rng, rng.Intn(24))
				var pos []int
				var cols []string
				for i, c := range b.Schema {
					if rng.Intn(2) == 0 {
						pos = append(pos, i)
						cols = append(cols, c)
					}
				}
				sel := randomSel(rng, b.Len())
				if sel == nil {
					sel = NewSel(b.Len())
				}
				ms := b.MultsSel(sel, nil)

				gt := mring.NewGroupTable(mring.Schema(cols))
				ref := mring.NewGroupTable(mring.Schema(cols))
				if collide {
					fn := func(tp mring.Tuple) uint64 { return tp.Hash() & 1 }
					gt.SetHashFnForTest(fn)
					ref.SetHashFnForTest(fn)
				}
				hs := b.HashSel(pos, sel)
				b.FoldSel(gt, pos, sel, hs, ms)
				for k, i := range sel {
					if ms[k] == 0 {
						continue
					}
					row, _ := b.Row(int(i))
					ref.Add(row.Project(pos), ms[k])
				}
				got, want := gt.ToRelation(), ref.ToRelation()
				if got.Len() != want.Len() {
					t.Fatalf("round %d cols=%v: %d groups, oracle %d",
						round, cols, got.Len(), want.Len())
				}
				want.Foreach(func(tp mring.Tuple, m float64) {
					if g := got.Get(tp); g != m {
						t.Fatalf("round %d cols=%v group %v: %v, oracle %v (bitwise)",
							round, cols, tp, g, m)
					}
				})
			}
		})
	}
}

// TestNewSelIdentity pins the trivial selection constructor.
func TestNewSelIdentity(t *testing.T) {
	s := NewSel(4)
	for i, v := range s {
		if int(v) != i {
			t.Fatalf("NewSel(4) = %v", s)
		}
	}
	if len(NewSel(0)) != 0 {
		t.Fatalf("NewSel(0) not empty")
	}
}

// q6Relation builds the Q6-shaped scan input of the columnar ablation
// benchmarks: ship date (int, small domain), quantity, discount, price.
func q6Relation(n int) *mring.Relation {
	r := mring.NewRelation(mring.Schema{"sdate", "qty", "disc", "price"})
	for i := 0; i < n; i++ {
		r.Add(mring.Tuple{
			mring.Int(19930101 + int64(i%2500)),
			mring.Float(float64(i%50) + 0.5),
			mring.Float(float64(i%11) * 0.01),
			mring.Float(float64(i%977) * 1.25),
		}, 1)
	}
	return r
}

// sinkLen keeps the benchmarked filters from being optimized away.
var sinkLen int

// BenchmarkColFilter runs the Q6 predicate chain over the same rows
// tuple-at-a-time with Value compares (row) and as selection-vector
// kernels over the relation's columnar mirror (kernel).
func BenchmarkColFilter(b *testing.B) {
	rel := q6Relation(32768)
	batch := MirrorOf(rel)
	preds := []Pred{
		{Col: 0, Op: PGe, Lit: mring.Int(19940101)},
		{Col: 0, Op: PLt, Lit: mring.Int(19950101)},
		{Col: 1, Op: PLt, Lit: mring.Float(24)},
	}
	b.Run("row", func(b *testing.B) {
		tuples := make([]mring.Tuple, 0, rel.Len())
		rel.Foreach(func(t mring.Tuple, _ float64) { tuples = append(tuples, t.Clone()) })
		for b.Loop() {
			survivors := 0
			for _, t := range tuples {
				keep := true
				for _, p := range preds {
					if !expr.EvalCmp(predCmpOps[p.Op], t[p.Col], p.Lit) {
						keep = false
						break
					}
				}
				if keep {
					survivors++
				}
			}
			sinkLen = survivors
		}
	})
	b.Run("kernel", func(b *testing.B) {
		identity := NewSel(batch.Len())
		scratch := make(Sel, batch.Len())
		for b.Loop() {
			sel := scratch[:copy(scratch, identity)]
			for _, p := range preds {
				sel = batch.FilterPred(p, sel)
			}
			sinkLen = len(sel)
		}
	})
}
