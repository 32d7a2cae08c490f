package expr

import (
	"fmt"

	"repro/internal/wire"
)

// The expression-tree codec: a node is a tag byte followed by its fields
// in declaration order, children written recursively (a count before the
// children of Plus and Mul). It covers the twelve node kinds a compiled
// statement can hold; Read refuses unknown tags, operators and kinds, and
// trees nested deeper than MaxDepth, so a hostile input cannot exhaust
// the stack. Read checks only the encoding: whether the tree is a program
// the evaluator can run is the caller's check.
const (
	tagRel byte = iota + 1
	tagPlus
	tagMul
	tagAgg
	tagConst
	tagVal
	tagCmp
	tagAssign
	tagExists
	tagVarRef
	tagLit
	tagArith
)

// MaxDepth bounds the nesting of a decoded tree (compiled trees are a few
// levels deep).
const MaxDepth = 256

// Write encodes x. Nodes outside the twelve kinds, nil ones included,
// are a programming error and panic.
func Write(e *wire.Enc, x Expr) {
	switch x := x.(type) {
	case *Rel:
		e.Byte(tagRel)
		e.Byte(byte(x.Kind))
		e.Str(x.Name)
		e.Strs(x.Cols)
		e.Bool(x.LowCard)
	case *Plus:
		e.Byte(tagPlus)
		writeAll(e, x.Terms)
	case *Mul:
		e.Byte(tagMul)
		writeAll(e, x.Factors)
	case *Agg:
		e.Byte(tagAgg)
		e.Strs(x.GroupBy)
		Write(e, x.Body)
	case *Const:
		e.Byte(tagConst)
		e.Float(x.V)
	case *Val:
		e.Byte(tagVal)
		writeV(e, x.E)
	case *Cmp:
		e.Byte(tagCmp)
		e.Byte(byte(x.Op))
		writeV(e, x.L)
		writeV(e, x.R)
	case *Assign:
		e.Byte(tagAssign)
		e.Str(x.Var)
		e.Bool(x.Q != nil)
		if x.Q != nil {
			Write(e, x.Q)
		} else {
			writeV(e, x.ValE)
		}
	case *Exists:
		e.Byte(tagExists)
		Write(e, x.Body)
	default:
		panic(fmt.Sprintf("expr: cannot encode node %T", x))
	}
}

func writeAll(e *wire.Enc, xs []Expr) {
	e.Int(len(xs))
	for _, x := range xs {
		Write(e, x)
	}
}

func writeV(e *wire.Enc, v VExpr) {
	switch v := v.(type) {
	case VarRef:
		e.Byte(tagVarRef)
		e.Str(v.Name)
	case Lit:
		e.Byte(tagLit)
		e.Value(v.V)
	case Arith:
		e.Byte(tagArith)
		e.Byte(byte(v.Op))
		writeV(e, v.L)
		writeV(e, v.R)
	default:
		panic(fmt.Sprintf("expr: cannot encode value term %T", v))
	}
}

// Read decodes one tree written by Write. On a malformed input it records
// the error in d and returns nil.
func Read(d *wire.Dec) Expr { return read(d, 0) }

func read(d *wire.Dec, depth int) Expr {
	if depth >= MaxDepth {
		d.Fail("tree nested deeper than %d", MaxDepth)
		return nil
	}
	depth++
	tag := d.Byte()
	if d.Err() != nil {
		return nil
	}
	switch tag {
	case tagRel:
		k := RelKind(d.Byte())
		if k > RView {
			d.Fail("unknown relation kind %d", k)
		}
		return &Rel{Kind: k, Name: d.Str(), Cols: d.Schema(), LowCard: d.Bool()}
	case tagPlus:
		return &Plus{Terms: readAll(d, depth)}
	case tagMul:
		return &Mul{Factors: readAll(d, depth)}
	case tagAgg:
		return &Agg{GroupBy: d.Schema(), Body: read(d, depth)}
	case tagConst:
		return &Const{V: d.Float()}
	case tagVal:
		return &Val{E: readV(d, depth)}
	case tagCmp:
		op := CmpOp(d.Byte())
		if op > CGe {
			d.Fail("unknown comparison %d", op)
		}
		return &Cmp{Op: op, L: readV(d, depth), R: readV(d, depth)}
	case tagAssign:
		a := &Assign{Var: d.Str()}
		if d.Bool() {
			a.Q = read(d, depth)
		} else {
			a.ValE = readV(d, depth)
		}
		return a
	case tagExists:
		return &Exists{Body: read(d, depth)}
	}
	d.Fail("unknown node tag %d", tag)
	return nil
}

// readAll reads the children of a Plus or Mul; every child is at least
// a tag byte.
func readAll(d *wire.Dec, depth int) []Expr {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	xs := make([]Expr, n)
	for i := range xs {
		xs[i] = read(d, depth)
	}
	return xs
}

func readV(d *wire.Dec, depth int) VExpr {
	if depth >= MaxDepth {
		d.Fail("tree nested deeper than %d", MaxDepth)
		return nil
	}
	tag := d.Byte()
	if d.Err() != nil {
		return nil
	}
	switch tag {
	case tagVarRef:
		return VarRef{Name: d.Str()}
	case tagLit:
		return Lit{V: d.Value()}
	case tagArith:
		op := VOp(d.Byte())
		if op > VFloorDiv {
			d.Fail("unknown arithmetic operator %d", op)
		}
		return Arith{Op: op, L: readV(d, depth+1), R: readV(d, depth+1)}
	}
	d.Fail("unknown value tag %d", tag)
	return nil
}
