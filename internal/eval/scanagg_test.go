package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
)

// The scan-aggregate parity tests hold the prepared plan of
// Sum_[gb](R * f1 * ... * fk) — one scanned relation under static
// comparisons (both operand orders), value terms and constants, the shape
// of every pre-aggregation statement — to the oracle (internal/baseline).
// The data is adversarial: NaN floats, integers beyond 2^53, strings
// compared with numbers and read as numbers, division by zero, zero
// constants, and columns mixing value kinds, with and without forced
// group-hash collisions.

var scanSchema = mring.Schema{"d", "q", "s"}

// fillScanRel populates R with mostly (int, float, string) rows; one row
// in eight carries another kind in one of its columns.
func fillScanRel(rng *rand.Rand, rel rawRel, n int) {
	for i := 0; i < n; i++ {
		var d int64
		if rng.Intn(8) == 0 {
			d = (int64(1) << 53) + int64(rng.Intn(3))
		} else {
			d = int64(rng.Intn(6))
		}
		var q float64
		switch rng.Intn(6) {
		case 0:
			q = math.NaN()
		case 1:
			q = 0
		default:
			q = float64(rng.Intn(9))/4 - 1
		}
		t := mring.Tuple{mring.Int(d), mring.Float(q), mring.Str(fmt.Sprintf("s%d", rng.Intn(3)))}
		if rng.Intn(8) == 0 {
			mixed := []mring.Value{mring.Str("2"), mring.Str("x"), mring.Float(2.5), mring.Int(1)}
			t[rng.Intn(len(t))] = mixed[rng.Intn(len(mixed))]
		}
		rel.Add(t, float64(rng.Intn(7)-3))
	}
}

func randomScanLit(rng *rand.Rand) expr.VExpr {
	switch rng.Intn(6) {
	case 0:
		return expr.LitI(int64(rng.Intn(6)))
	case 1:
		return expr.LitF(math.NaN())
	case 2:
		return expr.LitF(float64(rng.Intn(9))/4 - 1)
	case 3:
		return expr.LitS(fmt.Sprintf("s%d", rng.Intn(3)))
	case 4:
		return expr.LitS("2") // a string that reads as a number
	default:
		return expr.LitI((int64(1) << 53) + 1)
	}
}

func randomScanVal(rng *rand.Rand, depth int) expr.VExpr {
	if depth > 0 && rng.Intn(2) == 0 {
		l := randomScanVal(rng, depth-1)
		r := randomScanVal(rng, depth-1)
		switch rng.Intn(5) {
		case 0:
			return expr.AddV(l, r)
		case 1:
			return expr.SubV(l, r)
		case 2:
			return expr.MulV(l, r)
		case 3:
			return expr.DivV(l, r) // divisor may be zero
		default:
			return expr.FloorDivV(l, r)
		}
	}
	switch rng.Intn(4) {
	case 0:
		return expr.V("d")
	case 1:
		return expr.V("q")
	case 2:
		return expr.V("s") // string column: AsFloat parse semantics
	default:
		return randomScanLit(rng)
	}
}

// randomScanAgg builds Sum_[gb](R * f1 * ... * fk) over static
// comparisons (both operand orders), value terms and constants.
func randomScanAgg(rng *rand.Rand) expr.Expr {
	factors := []expr.Expr{expr.Base("R", scanSchema...)}
	for i := rng.Intn(4); i > 0; i-- {
		switch rng.Intn(3) {
		case 0:
			op := expr.CmpOp(rng.Intn(6))
			col := expr.V(scanSchema[rng.Intn(3)])
			lit := randomScanLit(rng)
			if rng.Intn(2) == 0 {
				factors = append(factors, expr.CmpE(op, col, lit))
			} else {
				factors = append(factors, expr.CmpE(op, lit, col))
			}
		case 1:
			factors = append(factors, expr.ValE(randomScanVal(rng, 2)))
		default:
			consts := []float64{0, 1, -1, 2.5, 0.25}
			factors = append(factors, &expr.Const{V: consts[rng.Intn(len(consts))]})
		}
	}
	var gb []string
	for _, c := range scanSchema {
		if rng.Intn(2) == 0 {
			gb = append(gb, c)
		}
	}
	return expr.Sum(gb, expr.Join(factors...))
}

// foldChecked folds stmt into a fresh target through its prepared plan
// and requires the target to hold the groups of the oracle's evaluation
// of stmt with the same float bits: reading the relations as the engine
// stores them, both multiply a row's factors left to right and sum a
// group's rows in scan order. The target must also agree, within the
// oracle's tolerance, with the oracle's evaluation of the raw changes,
// whose rows it sums in arrival order and consolidates by its own
// identity. setup, when non-nil, configures the context before the fold.
func foldChecked(t *testing.T, env rawEnv, stmt expr.Expr, op AssignOp, setup func(*Ctx), label string) {
	t.Helper()
	target := mring.NewRelation(stmt.Schema())
	ctx := NewCtx(env.Env)
	if setup != nil {
		setup(ctx)
	}
	ctx.FoldStmt(target, op, stmt)
	if d := baseline.Diff(target, baseline.Eval(stmt, baseline.Of(env.raw))); d != "" {
		t.Fatalf("%s: diverges from the oracle over the raw changes: %s", label, d)
	}
	want := baseline.Eval(stmt, baseline.Of(env.rels))
	if target.Len() != len(want) {
		t.Fatalf("%s: %d groups, oracle %d: %s", label, target.Len(), len(want), baseline.Diff(target, want))
	}
	for _, w := range want {
		if got := target.Get(w.Tuple); math.Float64bits(got) != math.Float64bits(w.M) {
			t.Fatalf("%s: group %v is %v, oracle %v", label, w.Tuple, got, w.M)
		}
	}
}

func runScanAggParity(t *testing.T, seed int64, hashFn func(mring.Tuple) uint64) {
	rng := rand.New(rand.NewSource(seed))
	setup := func(c *Ctx) { c.groupHash = hashFn }
	for round := 0; round < 120; round++ {
		env := newRawEnv()
		fillScanRel(rng, env.define("R", scanSchema), 1+rng.Intn(50))
		stmt := randomScanAgg(rng)
		op := OpAdd
		if rng.Intn(3) == 0 {
			op = OpSet
		}
		foldChecked(t, env, stmt, op, setup, fmt.Sprintf("seed %d round %d %v", seed, round, stmt))
	}
}

// The parity tests keep the names they had when a columnar kernel shared
// these statements with the row path; the kernel is gone, and they now
// hold the prepared row plan to the oracle.

func TestKernelMatchesRowPathBitwise(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScanAggParity(t, seed, nil)
		})
	}
}

func TestKernelMatchesRowPathUnderForcedCollisions(t *testing.T) {
	collide := func(tp mring.Tuple) uint64 { return tp.Hash() & 1 }
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runScanAggParity(t, seed, collide)
		})
	}
}

// TestKernelFallbacks covers the shapes the deleted columnar kernel
// handed back to the row path — a one-row relation, a column of mixed
// kinds, a traced fold, a two-relation join and a repeated column
// variable. Each now folds through its prepared plan like every other
// aggregate, and must match the oracle.
func TestKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stmt := expr.Sum([]string{"d"}, expr.Join(
		expr.Base("R", scanSchema...),
		expr.CmpE(expr.CLt, expr.V("d"), expr.LitI(4)),
		expr.ValE(expr.V("q")),
	))

	t.Run("small-relation", func(t *testing.T) {
		env := newRawEnv()
		env.define("R", scanSchema).Add(mring.Tuple{mring.Int(1), mring.Float(0.5), mring.Str("s")}, 2)
		foldChecked(t, env, stmt, OpAdd, nil, "small")
	})

	t.Run("mixed-kind-column", func(t *testing.T) {
		env := newRawEnv()
		rel := env.define("R", scanSchema)
		fillScanRel(rng, rel, 20)
		rel.Add(mring.Tuple{mring.Str("not-an-int"), mring.Float(1), mring.Str("x")}, 1)
		rel.Add(mring.Tuple{mring.Float(2.5), mring.Int(3), mring.Str("y")}, 1)
		foldChecked(t, env, stmt, OpAdd, nil, "mixed")
	})

	t.Run("uncovered-shape", func(t *testing.T) {
		env := newRawEnv()
		fillScanRel(rng, env.define("R", scanSchema), 20)
		other := env.define("S", mring.Schema{"d"})
		other.Add(mring.Tuple{mring.Int(1)}, 1)
		join := expr.Sum([]string{"d"}, expr.Join(
			expr.Base("R", scanSchema...),
			expr.Base("S", "d"),
		))
		foldChecked(t, env, join, OpAdd, nil, "join")
	})

	t.Run("repeated-column", func(t *testing.T) {
		env := newRawEnv()
		rel := env.define("R", mring.Schema{"a", "b"})
		for i := 0; i < 12; i++ {
			rel.Add(mring.Tuple{mring.Int(int64(i % 3)), mring.Int(int64(i % 4))}, float64(i%5-2))
		}
		foldChecked(t, env, expr.Sum([]string{"d"}, expr.Base("R", "d", "d")), OpAdd, nil, "repeated")
	})
}
