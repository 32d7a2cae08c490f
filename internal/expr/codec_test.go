package expr

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mring"
	"repro/internal/wire"
)

// codecTree holds every one of the twelve node kinds.
func codecTree() Expr {
	price := Arith{Op: VMul, L: V("p"), R: Arith{Op: VSub, L: Lit{V: mring.Int(1)}, R: V("d")}}
	return &Plus{Terms: []Expr{
		Sum([]string{"k"}, &Mul{Factors: []Expr{
			Delta("R", "k", "p", "d"),
			&Rel{Kind: RView, Name: "V", Cols: mring.Schema{"k"}, LowCard: true},
			CmpE(CGe, V("d"), Lit{V: mring.Float(0.05)}),
			CmpE(CNe, V("k"), Lit{V: mring.Str("x")}),
			ValE(price),
			LiftV("y", Arith{Op: VFloorDiv, L: V("d"), R: Lit{V: mring.Int(-100)}}),
			LiftQ("n", Sum(nil, Base("S", "k"))),
			ExistsE(Base("T", "k")),
		}}),
		&Const{V: -1},
	}}
}

func writeTree(x Expr) []byte {
	var e wire.Enc
	Write(&e, x)
	return e.B
}

// TestTreeCodecRoundTrip pins that every node kind decodes to the tree
// that was encoded, and that the decoded tree re-encodes to the same
// bytes.
func TestTreeCodecRoundTrip(t *testing.T) {
	in := codecTree()
	b := writeTree(in)
	d := wire.NewDec(b)
	out := Read(&d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !identicalTrees(reflect.ValueOf(in), reflect.ValueOf(out)) {
		t.Fatalf("round trip gave %s, want %s", out, in)
	}
	if again := writeTree(out); string(again) != string(b) {
		t.Fatal("re-encoding differs")
	}
}

// identicalTrees is reflect.DeepEqual on a tree of exported fields,
// except that it holds each mring.Value to Identical: DeepEqual would
// compare a string Value's data pointer, and a decoded string has bytes
// of its own.
func identicalTrees(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return identicalTrees(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !identicalTrees(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if v, ok := a.Interface().(mring.Value); ok {
			return v.Identical(b.Interface().(mring.Value))
		}
		for i := range a.NumField() {
			if !identicalTrees(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestTreeCodecRefusesMalformed pins the decoder's refusals: unknown
// tags, operators and kinds, a value term where a node belongs, and
// nesting past MaxDepth — which must fail cleanly, not exhaust the stack.
func TestTreeCodecRefusesMalformed(t *testing.T) {
	cmp := writeTree(CmpE(CEq, V("a"), V("b")))
	badCmp := append([]byte{}, cmp...)
	badCmp[1] = byte(CGe) + 1
	arith := writeTree(ValE(Arith{Op: VAdd, L: V("a"), R: V("b")}))
	badArith := append([]byte{}, arith...)
	badArith[2] = byte(VFloorDiv) + 1
	rel := writeTree(Base("R", "a"))
	badRel := append([]byte{}, rel...)
	badRel[1] = byte(RView) + 1
	deep := make([]byte, 0, 1<<20)
	for len(deep) < 1<<20 {
		deep = append(deep, tagExists)
	}
	for name, c := range map[string]struct {
		b    []byte
		want string
	}{
		"unknown tag":       {[]byte{0}, "unknown node tag"},
		"value as node":     {[]byte{tagVarRef, 0}, "unknown node tag"},
		"unknown cmp":       {badCmp, "unknown comparison"},
		"unknown arith":     {badArith, "unknown arithmetic"},
		"unknown rel kind":  {badRel, "unknown relation kind"},
		"unknown value tag": {[]byte{tagVal, tagExists}, "unknown value tag"},
		"too deep":          {deep, "deeper"},
		"truncated":         {cmp[:len(cmp)-1], "bytes left"},
	} {
		d := wire.NewDec(c.b)
		Read(&d)
		if err := d.Done(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
}
