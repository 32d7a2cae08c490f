package eval

import (
	"math"
	"testing"

	"repro/internal/expr"
	"repro/internal/mring"
)

var allVOps = []expr.VOp{expr.VAdd, expr.VSub, expr.VMul, expr.VDiv, expr.VFloorDiv}

var allCmpOps = []expr.CmpOp{expr.CEq, expr.CNe, expr.CLt, expr.CLe, expr.CGt, expr.CGe}

// kernelOperands covers every kind: integers past 2^53 and at the int64
// limits, floats with NaN, both infinities, -0 and a subnormal, numeric
// and non-numeric strings, and zero divisors of every kind.
var kernelOperands = []mring.Value{
	mring.Int(0), mring.Int(1), mring.Int(-1), mring.Int(7), mring.Int(10000),
	mring.Int(1<<53 + 1), mring.Int(-(1 << 53) - 1), mring.Int(math.MaxInt64), mring.Int(math.MinInt64),
	mring.Float(0), mring.Float(math.Copysign(0, -1)), mring.Float(0.05), mring.Float(-2.5),
	mring.Float(1e300), mring.Float(5e-324), mring.Float(math.NaN()), mring.Float(math.Inf(1)),
	mring.Float(math.Inf(-1)), mring.Float(1 << 53),
	mring.Str(""), mring.Str("0"), mring.Str("3.25"), mring.Str("-0"), mring.Str("abc"),
	mring.Str("1e400"), mring.Str("NaN"),
}

type countSink struct{ m float64 }

func (s *countSink) emit(_ *Ctx, m float64) { s.m += m }

// checkKernels holds the lowered value terms over operands a and b to
// their definitions: every arithmetic shape's float path to
// ArithV(...).AsFloat() and its value path to ArithV, bit for bit, with
// slot and literal operands, and the comparison of a slot with an integer
// literal to expr.EvalCmp.
func checkKernels(t *testing.T, a, b mring.Value) {
	t.Helper()
	l := &lowerer{slots: map[string]int{}, relIdx: map[string]int{}, reads: map[int]bool{}}
	in := state{}.with(l.slot("a"), l.slot("b"))
	frame := []mring.Value{a, b}
	va, vb := expr.VExpr(expr.V("a")), expr.VExpr(expr.V("b"))
	la, lb := expr.VExpr(expr.Lit{V: a}), expr.VExpr(expr.Lit{V: b})
	for _, op := range allVOps {
		want := expr.ArithV(op, a.AsFloat(), b.AsFloat())
		// The revenue shape: a product of a slot and a difference.
		nested := expr.ArithV(expr.VMul, a.AsFloat(), expr.ArithV(op, 1, b.AsFloat()).AsFloat())
		for _, c := range []struct {
			e    expr.VExpr
			want mring.Value
		}{
			{expr.Arith{Op: op, L: va, R: vb}, want},
			{expr.Arith{Op: op, L: va, R: lb}, want},
			{expr.Arith{Op: op, L: la, R: vb}, want},
			{expr.MulV(va, expr.Arith{Op: op, L: expr.LitF(1), R: vb}), nested},
		} {
			v := l.value(c.e, in)
			if got := v.float(frame); math.Float64bits(got) != math.Float64bits(c.want.AsFloat()) {
				t.Fatalf("%v with a=%v b=%v: float path %v (%#x), want %v (%#x)",
					c.e, a, b, got, math.Float64bits(got), c.want.AsFloat(), math.Float64bits(c.want.AsFloat()))
			}
			if got := v.val(frame); !got.Identical(c.want) {
				t.Fatalf("%v with a=%v b=%v: value path %#v, want %#v", c.e, a, b, got, c.want)
			}
		}
	}
	for _, op := range allCmpOps {
		lit := b.AsInt()
		want := expr.EvalCmp(op, a, mring.Int(lit))
		if got := cmpInt(op, &a, lit); got != want {
			t.Fatalf("%v %v %d: cmpInt %v, EvalCmp %v", a, op, lit, got, want)
		}
		k := &countSink{}
		n, _ := l.lower(expr.CmpE(op, va, expr.LitI(lit)), in, k)
		if _, ok := n.(*cmpIntNode); !ok {
			t.Fatalf("slot %v integer literal lowered to %T", op, n)
		}
		n.run(&Ctx{frame: frame})
		if got := k.m == 1; got != want {
			t.Fatalf("%v %v %d: lowered comparison %v, EvalCmp %v", a, op, lit, got, want)
		}
	}
}

// TestValueKernels runs checkKernels over every pair of kernelOperands.
func TestValueKernels(t *testing.T) {
	for _, a := range kernelOperands {
		for _, b := range kernelOperands {
			checkKernels(t, a, b)
		}
	}
}

// TestFloorDivRange pins floor division at the edges of the int64 range:
// a quotient in [-2^63, 2^63) is an integer and any other, NaN and the
// infinities included, stays a float, on the value path and the float
// path alike.
func TestFloorDivRange(t *testing.T) {
	for _, c := range []struct {
		l, r float64
		want mring.Value
	}{
		{7, 2, mring.Int(3)},
		{-7, 2, mring.Int(-4)},
		{0, -1, mring.Int(0)},
		{5, 0, mring.Int(0)},
		{0x1p63 - 1024, 1, mring.Int(math.MaxInt64 - 1023)},
		{-0x1p63, 1, mring.Int(math.MinInt64)},
		{0x1p63, 1, mring.Float(0x1p63)},
		{-0x1p64, 1, mring.Float(-0x1p64)},
		{1e300, 0.5, mring.Float(2e300)},
		{math.Inf(1), 1, mring.Float(math.Inf(1))},
		{1, math.Inf(-1), mring.Int(0)},
		{math.NaN(), 3, mring.Float(math.NaN())},
	} {
		got := expr.ArithV(expr.VFloorDiv, c.l, c.r)
		if !got.Identical(c.want) {
			t.Errorf("%g // %g = %v %v, want %v %v", c.l, c.r, got.Kind(), got, c.want.Kind(), c.want)
		}
		if f := arith(expr.VFloorDiv, c.l, c.r); math.Float64bits(f) != math.Float64bits(got.AsFloat()) {
			t.Errorf("%g // %g: float path %#x, value path %#x", c.l, c.r, math.Float64bits(f), math.Float64bits(got.AsFloat()))
		}
	}
}

// FuzzValueKernels runs checkKernels over arbitrary operands, each of the
// kind its selector picks.
func FuzzValueKernels(f *testing.F) {
	f.Add(uint8(0), int64(19980902), 0.0, "", uint8(0), int64(10000), 0.0, "")
	f.Add(uint8(1), int64(0), 0.05, "", uint8(1), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(0), int64(1<<53+1), 0.0, "", uint8(1), int64(0), math.NaN(), "")
	f.Add(uint8(2), int64(0), 0.0, "3.25", uint8(2), int64(0), 0.0, "abc")
	f.Add(uint8(1), int64(0), math.Inf(1), "", uint8(0), int64(math.MinInt64), 0.0, "")
	// Quotients and literals past the int64 range, at its edges and NaN.
	f.Add(uint8(1), int64(0), 1e300, "", uint8(1), int64(0), 1e300, "")
	f.Add(uint8(1), int64(0), -1e300, "", uint8(1), int64(0), math.Inf(-1), "")
	f.Add(uint8(1), int64(0), 0x1p63, "", uint8(0), int64(1), 0.0, "")
	f.Add(uint8(1), int64(0), -0x1p63, "", uint8(1), int64(0), math.NaN(), "")
	f.Add(uint8(0), int64(math.MinInt64), 0.0, "", uint8(0), int64(-1), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		checkKernels(t, operand(ka, ia, fa, sa), operand(kb, ib, fb, sb))
	})
}

func operand(k uint8, i int64, f float64, s string) mring.Value {
	switch k % 3 {
	case 0:
		return mring.Int(i)
	case 1:
		return mring.Float(f)
	default:
		return mring.Str(s)
	}
}
