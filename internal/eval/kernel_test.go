package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/mring"
)

// The kernel dispatch tests pin the vectorized columnar path to the
// row-wise interpreter bit for bit: the same statement folded with
// kernels enabled and disabled must produce identical group relations —
// same groups, same first-insertion order, same float bits — across
// random covered statements over adversarial data (NaN floats, integers
// beyond 2^53, zero constants, division by zero), with and without
// forced group-hash collisions. Uncovered shapes and ineligible contexts
// must fall back without firing the kernel counter.

var kernelSchema = mring.Schema{"d", "q", "s"}

// fillKernelRel populates R with fixed-kind columns (int, float, string)
// so a lossless columnar mirror exists.
func fillKernelRel(rng *rand.Rand, rel *mring.Relation, n int) {
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
		s := fmt.Sprintf("s%d", rng.Intn(3))
		rel.Add(mring.Tuple{mring.Int(d), mring.Float(q), mring.Str(s)},
			float64(rng.Intn(7)-3))
	}
}

func randomKernelLit(rng *rand.Rand) expr.VExpr {
	switch rng.Intn(5) {
	case 0:
		return expr.LitI(int64(rng.Intn(6)))
	case 1:
		return expr.LitF(math.NaN())
	case 2:
		return expr.LitF(float64(rng.Intn(9))/4 - 1)
	case 3:
		return expr.LitS(fmt.Sprintf("s%d", rng.Intn(3)))
	default:
		return expr.LitI((int64(1) << 53) + 1)
	}
}

func randomKernelVal(rng *rand.Rand, depth int) expr.VExpr {
	if depth > 0 && rng.Intn(2) == 0 {
		l := randomKernelVal(rng, depth-1)
		r := randomKernelVal(rng, depth-1)
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
		return randomKernelLit(rng)
	}
}

// randomCoveredStmt builds Sum_[gb](R * f1 * ... * fk) from covered
// factor shapes only: static comparisons (both operand orders), value
// terms, and constants.
func randomCoveredStmt(rng *rand.Rand) expr.Expr {
	factors := []expr.Expr{expr.Base("R", kernelSchema...)}
	for i := rng.Intn(4); i > 0; i-- {
		switch rng.Intn(3) {
		case 0:
			op := expr.CmpOp(rng.Intn(6))
			col := expr.V(kernelSchema[rng.Intn(3)])
			lit := randomKernelLit(rng)
			if rng.Intn(2) == 0 {
				factors = append(factors, expr.CmpE(op, col, lit))
			} else {
				factors = append(factors, expr.CmpE(op, lit, col))
			}
		case 1:
			factors = append(factors, expr.ValE(randomKernelVal(rng, 2)))
		default:
			consts := []float64{0, 1, -1, 2.5, 0.25}
			factors = append(factors, &expr.Const{V: consts[rng.Intn(len(consts))]})
		}
	}
	var gb []string
	for _, c := range kernelSchema {
		if rng.Intn(2) == 0 {
			gb = append(gb, c)
		}
	}
	return expr.Sum(gb, expr.Join(factors...))
}

// foldBoth folds stmt into fresh targets through the kernel and row
// paths and requires bitwise-identical results, returning the kernel
// context for dispatch assertions.
func foldBoth(t *testing.T, env *Env, stmt expr.Expr, op AssignOp, hashFn func(mring.Tuple) uint64, label string) *Ctx {
	t.Helper()
	schema := stmt.Schema()
	kT := mring.NewRelation(schema)
	rT := mring.NewRelation(schema)
	kCtx, rCtx := NewCtx(env), NewCtx(env)
	kCtx.groupHash, rCtx.groupHash = hashFn, hashFn
	rCtx.DisableKernels = true
	kCtx.FoldStmt(kT, op, stmt)
	rCtx.FoldStmt(rT, op, stmt)

	if kCtx.KernelFolds == 0 && rCtx.KernelFolds != 0 {
		t.Fatalf("%s: DisableKernels did not disable the kernel path", label)
	}
	if kT.Len() != rT.Len() {
		t.Fatalf("%s: kernel path %d groups, row path %d\n kernel: %v\n row:    %v",
			label, kT.Len(), rT.Len(), kT, rT)
	}
	// Same groups, same accumulated bits, same first-insertion order.
	type ent struct {
		t mring.Tuple
		m float64
	}
	var kOrder, rOrder []ent
	kT.Foreach(func(tp mring.Tuple, m float64) { kOrder = append(kOrder, ent{tp.Clone(), m}) })
	rT.Foreach(func(tp mring.Tuple, m float64) { rOrder = append(rOrder, ent{tp.Clone(), m}) })
	for i := range rOrder {
		if !kOrder[i].t.KeyEqual(rOrder[i].t) ||
			math.Float64bits(kOrder[i].m) != math.Float64bits(rOrder[i].m) {
			t.Fatalf("%s: position %d diverges: kernel %v=%v, row %v=%v",
				label, i, kOrder[i].t, kOrder[i].m, rOrder[i].t, rOrder[i].m)
		}
	}
	return kCtx
}

func runKernelParity(t *testing.T, seed int64, hashFn func(mring.Tuple) uint64) {
	rng := rand.New(rand.NewSource(seed))
	fired, eligible := int64(0), int64(0)
	for round := 0; round < 120; round++ {
		env := NewEnv()
		rel := env.Define("R", kernelSchema)
		fillKernelRel(rng, rel, 8+rng.Intn(50))
		if rel.Len() >= kernelMinRows { // cancellation can shrink small fills
			eligible++
		}
		stmt := randomCoveredStmt(rng)
		op := OpAdd
		if rng.Intn(3) == 0 {
			op = OpSet
		}
		kCtx := foldBoth(t, env, stmt, op, hashFn, fmt.Sprintf("seed %d round %d %v", seed, round, stmt))
		fired += kCtx.KernelFolds
	}
	// Covered statements over mirrorable relations of >= kernelMinRows
	// rows must actually dispatch to the kernel (not silently fall back).
	if fired != eligible {
		t.Fatalf("kernel fired on %d statements, %d were eligible", fired, eligible)
	}
}

func TestKernelMatchesRowPathBitwise(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runKernelParity(t, seed, nil)
		})
	}
}

func TestKernelMatchesRowPathUnderForcedCollisions(t *testing.T) {
	collide := func(tp mring.Tuple) uint64 { return tp.Hash() & 1 }
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runKernelParity(t, seed, collide)
		})
	}
}

// TestKernelFallbacks pins every documented reason not to dispatch: the
// result must still be correct and KernelFolds must stay zero.
func TestKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stmt := expr.Sum([]string{"d"}, expr.Join(
		expr.Base("R", kernelSchema...),
		expr.CmpE(expr.CLt, expr.V("d"), expr.LitI(4)),
		expr.ValE(expr.V("q")),
	))

	t.Run("small-relation", func(t *testing.T) {
		env := NewEnv()
		fillKernelRel(rng, env.Define("R", kernelSchema), kernelMinRows-1)
		if c := foldBoth(t, env, stmt, OpAdd, nil, "small"); c.KernelFolds != 0 {
			t.Fatalf("kernel fired on a %d-row relation", kernelMinRows-1)
		}
	})

	t.Run("mixed-kind-column", func(t *testing.T) {
		env := NewEnv()
		rel := env.Define("R", kernelSchema)
		fillKernelRel(rng, rel, 20)
		rel.Add(mring.Tuple{mring.Str("not-an-int"), mring.Float(1), mring.Str("x")}, 1)
		if c := foldBoth(t, env, stmt, OpAdd, nil, "mixed"); c.KernelFolds != 0 {
			t.Fatalf("kernel fired on a mixed-kind relation")
		}
	})

	t.Run("tracer", func(t *testing.T) {
		env := NewEnv()
		fillKernelRel(rng, env.Define("R", kernelSchema), 20)
		target := mring.NewRelation(mring.Schema{"d"})
		ctx := NewCtx(env)
		ctx.Tracer = func(string, uint64) {}
		ctx.FoldStmt(target, OpAdd, stmt)
		if ctx.KernelFolds != 0 {
			t.Fatalf("kernel fired under a tracer")
		}
	})

	t.Run("uncovered-shape", func(t *testing.T) {
		env := NewEnv()
		fillKernelRel(rng, env.Define("R", kernelSchema), 20)
		other := env.Define("S", mring.Schema{"d"})
		other.Add(mring.Tuple{mring.Int(1)}, 1)
		join := expr.Sum([]string{"d"}, expr.Join(
			expr.Base("R", kernelSchema...),
			expr.Base("S", "d"),
		))
		if c := foldBoth(t, env, join, OpAdd, nil, "join"); c.KernelFolds != 0 {
			t.Fatalf("kernel fired on a two-relation join")
		}
	})

	t.Run("repeated-column", func(t *testing.T) {
		if _, ok := KernelEligible(expr.Sum(nil, expr.Base("R", "d", "d"))); ok {
			t.Fatalf("repeated column variable reported eligible")
		}
	})
}

// TestKernelEligible pins the compiler-facing coverage check on the
// canonical shapes.
func TestKernelEligible(t *testing.T) {
	covered := expr.Sum([]string{"s"}, expr.Join(
		expr.Base("R", kernelSchema...),
		expr.CmpE(expr.CGe, expr.V("q"), expr.LitF(0.5)),
		expr.ValE(expr.MulV(expr.V("q"), expr.V("d"))),
	))
	if env, ok := KernelEligible(covered); !ok || env != "R" {
		t.Fatalf("covered statement reported (%q, %v)", env, ok)
	}
	if _, ok := KernelEligible(expr.Base("R", kernelSchema...)); ok {
		t.Fatalf("bare relation reported eligible")
	}
	// Group-by over a column the relation does not bind.
	if _, ok := KernelEligible(expr.Sum([]string{"z"}, expr.Base("R", kernelSchema...))); ok {
		t.Fatalf("foreign group-by reported eligible")
	}
}

// BenchmarkColFold folds a Q6-shaped pre-aggregation (date-grouped
// revenue under the Q6 predicates) through the row-wise interpreter
// (row) and the vectorized kernel dispatch (kernel). The kernel side
// reuses the relation's version-cached columnar mirror across folds, the
// steady state of a maintenance stream.
func BenchmarkColFold(b *testing.B) {
	schema := mring.Schema{"sdate", "qty", "disc", "price"}
	rel := mring.NewRelation(schema)
	for i := 0; i < 32768; i++ {
		rel.Add(mring.Tuple{
			mring.Int(19930101 + int64(i%2500)),
			mring.Float(float64(i%50) + 0.5),
			mring.Float(float64(i%11) * 0.01),
			mring.Float(float64(i%977) * 1.25),
		}, 1)
	}
	env := NewEnv()
	env.Bind("R", rel)
	stmt := expr.Sum([]string{"sdate"}, expr.Join(
		expr.Base("R", schema...),
		expr.CmpE(expr.CGe, expr.V("sdate"), expr.LitI(19940101)),
		expr.CmpE(expr.CLt, expr.V("sdate"), expr.LitI(19950101)),
		expr.CmpE(expr.CLt, expr.V("qty"), expr.LitI(24)),
		expr.ValE(expr.MulV(expr.V("price"), expr.V("disc"))),
	))
	for _, kernel := range []bool{false, true} {
		name := "row"
		if kernel {
			name = "kernel"
		}
		b.Run(name, func(b *testing.B) {
			ctx := NewCtx(env)
			ctx.DisableKernels = !kernel
			for b.Loop() {
				ctx.FoldStmt(mring.NewRelation(mring.Schema{"sdate"}), OpAdd, stmt)
			}
			if kernel && ctx.KernelFolds == 0 {
				b.Fatal("ColFold never dispatched to the kernel path")
			}
		})
	}
}
