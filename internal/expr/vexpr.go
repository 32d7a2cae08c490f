// Package expr defines the query algebra of the paper (Sec. 3.1, App. A):
// algebraic formulas over generalized multiset relations. Queries are trees
// of Rel, Plus (bag union), Mul (natural join), Agg (Sum_[gb] projection),
// Const, Val (interpreted value terms), Cmp (comparisons), Assign (variable
// assignment / lifting var := Q), and Exists (the paper's syntactic sugar,
// kept first-class).
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mring"
)

// VOp enumerates arithmetic operators of value expressions.
type VOp uint8

// Arithmetic operators.
const (
	VAdd VOp = iota
	VSub
	VMul
	VDiv
	// VFloorDiv is integer (floor) division, used e.g. to extract the
	// year from yyyymmdd-coded dates. A quotient outside the int64 range,
	// NaN and the infinities included, stays a float.
	VFloorDiv
)

func (op VOp) String() string {
	switch op {
	case VAdd:
		return "+"
	case VSub:
		return "-"
	case VMul:
		return "*"
	case VDiv:
		return "/"
	case VFloorDiv:
		return "//"
	}
	return "?"
}

// VExpr is an interpreted value expression f(var1, var2, ...): valid only
// when all its variables are bound at evaluation time.
type VExpr interface {
	// Vars appends the variables referenced by the expression.
	Vars(dst []string) []string
	// EvalV computes the value under the binding lookup.
	EvalV(lookup func(string) mring.Value) mring.Value
	fmt.Stringer
}

// VarRef references a bound column variable.
type VarRef struct{ Name string }

// Vars implements VExpr.
func (v VarRef) Vars(dst []string) []string { return append(dst, v.Name) }

// EvalV implements VExpr.
func (v VarRef) EvalV(lookup func(string) mring.Value) mring.Value { return lookup(v.Name) }

func (v VarRef) String() string { return v.Name }

// Lit is a literal constant value.
type Lit struct{ V mring.Value }

// Vars implements VExpr.
func (l Lit) Vars(dst []string) []string { return dst }

// EvalV implements VExpr.
func (l Lit) EvalV(func(string) mring.Value) mring.Value { return l.V }

func (l Lit) String() string { return l.V.String() }

// Arith applies a binary arithmetic operator to two value expressions.
// The result is always a float value.
type Arith struct {
	Op   VOp
	L, R VExpr
}

// Vars implements VExpr.
func (a Arith) Vars(dst []string) []string { return a.R.Vars(a.L.Vars(dst)) }

// EvalV implements VExpr.
func (a Arith) EvalV(lookup func(string) mring.Value) mring.Value {
	return ArithV(a.Op, a.L.EvalV(lookup).AsFloat(), a.R.EvalV(lookup).AsFloat())
}

// ArithV applies op to two operands already converted to floats: the
// arithmetic of Arith.EvalV, shared with evaluators that resolve the
// operands themselves.
func ArithV(op VOp, l, r float64) mring.Value {
	switch op {
	case VAdd:
		return mring.Float(l + r)
	case VSub:
		return mring.Float(l - r)
	case VMul:
		return mring.Float(l * r)
	case VFloorDiv:
		if r == 0 {
			return mring.Int(0)
		}
		// A quotient past the int64 range, or NaN, stays a float: Go
		// leaves int64(q) undefined there.
		q := math.Floor(l / r)
		if q >= -0x1p63 && q < 0x1p63 {
			return mring.Int(int64(q))
		}
		return mring.Float(q)
	default:
		if r == 0 {
			return mring.Float(0)
		}
		return mring.Float(l / r)
	}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Convenience VExpr constructors.

// V references variable name.
func V(name string) VExpr { return VarRef{Name: name} }

// LitF is a float literal.
func LitF(f float64) VExpr { return Lit{V: mring.Float(f)} }

// LitI is an integer literal.
func LitI(i int64) VExpr { return Lit{V: mring.Int(i)} }

// LitS is a string literal.
func LitS(s string) VExpr { return Lit{V: mring.Str(s)} }

// AddV, SubV, MulV, DivV build arithmetic nodes.
func AddV(l, r VExpr) VExpr { return Arith{Op: VAdd, L: l, R: r} }

// SubV builds l - r.
func SubV(l, r VExpr) VExpr { return Arith{Op: VSub, L: l, R: r} }

// MulV builds l * r.
func MulV(l, r VExpr) VExpr { return Arith{Op: VMul, L: l, R: r} }

// DivV builds l / r (0 when r evaluates to 0).
func DivV(l, r VExpr) VExpr { return Arith{Op: VDiv, L: l, R: r} }

// FloorDivV builds integer floor division l // r.
func FloorDivV(l, r VExpr) VExpr { return Arith{Op: VFloorDiv, L: l, R: r} }

// CmpOp enumerates comparison predicates.
type CmpOp uint8

// Comparison operators.
const (
	CEq CmpOp = iota
	CNe
	CLt
	CLe
	CGt
	CGe
)

func (op CmpOp) String() string {
	switch op {
	case CEq:
		return "="
	case CNe:
		return "!="
	case CLt:
		return "<"
	case CLe:
		return "<="
	case CGt:
		return ">"
	case CGe:
		return ">="
	}
	return "?"
}

// EvalCmp applies the predicate to two values.
func EvalCmp(op CmpOp, l, r mring.Value) bool {
	switch op {
	case CEq:
		return l.Equal(r)
	case CNe:
		return !l.Equal(r)
	case CLt:
		return l.Less(r)
	case CLe:
		return !r.Less(l)
	case CGt:
		return r.Less(l)
	default:
		return !l.Less(r)
	}
}

func joinStrings(xs []string) string { return strings.Join(xs, ",") }
