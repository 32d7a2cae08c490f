// Package ivm is the public API of this repository: distributed
// incremental view maintenance with batch updates, reproducing Nikolic,
// Dashti, and Koch, "How to Win a Hot Dog Eating Contest" (SIGMOD 2016).
//
// The library compiles queries over generalized multiset relations into
// recursively incremental maintenance programs (DBToaster-style), with
// batched delta processing, domain extraction for nested aggregates, and
// a compiler that turns local trigger programs into distributed programs
// for a synchronous driver/worker platform.
//
// One Engine type fronts both execution planes; functional options pick
// and configure the backend:
//
//	q := ivm.Sum([]string{"b"}, ivm.Join(
//	        ivm.Table("R", "a", "b"), ivm.Table("S", "b", "c")))
//	bases := map[string]ivm.Schema{"R": {"a", "b"}, "S": {"b", "c"}}
//
//	eng, err := ivm.New("Q", q, bases)                        // single node
//	eng, err = ivm.New("Q", q, bases,
//	        ivm.Distributed(16), ivm.KeyRanks(ranks))         // simulated cluster
//
// Updates apply either as single-table batches or as atomic multi-table
// transactions, and a changefeed delivers the per-transaction result
// deltas:
//
//	eng.Subscribe(func(d ivm.Delta) {
//	        d.Foreach(func(group ivm.Tuple, change float64) { ... })
//	})
//	tx := eng.NewTx()
//	tx.Insert("R", ivm.Row(1, 10))
//	tx.Insert("S", ivm.Row(10, 7))
//	err = eng.Apply(tx)        // both deltas fold in one maintenance step
//	result := eng.Result()     // always fresh
package ivm

import (
	"fmt"
	"math"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Re-exported core types.
type (
	// Expr is a query expression over generalized multiset relations.
	Expr = expr.Expr
	// VExpr is an interpreted value expression over bound variables.
	VExpr = expr.VExpr
	// Schema is an ordered list of column names.
	Schema = mring.Schema
	// Tuple is one row of column values.
	Tuple = mring.Tuple
	// Value is one typed column value.
	Value = mring.Value
	// Options control compilation (domain extraction, batch
	// pre-aggregation, re-evaluation policy).
	Options = compile.Options
	// Program is a compiled recursive maintenance program.
	Program = compile.Program
)

// Query construction (the algebra of Sec. 3.1).
var (
	// Table references a base table binding its columns to variables.
	Table = expr.Base
	// Join is the natural join of its operands (variables flow left to
	// right).
	Join = expr.Join
	// Union is bag union.
	Union = expr.Add
	// Sum is the multiplicity-preserving projection Sum_[groupBy].
	Sum = expr.Sum
	// Lift is variable assignment var := Q (nested aggregates).
	Lift = expr.LiftQ
	// LetV binds a variable to a computed value.
	LetV = expr.LiftV
	// Exists normalizes non-zero multiplicities to 1 (DISTINCT).
	Exists = expr.ExistsE
	// Cond builds a comparison predicate term.
	Cond = expr.CmpE
	// Val embeds a computed value as the tuple's aggregate contribution.
	Val = expr.ValE
	// Col references a bound column variable inside value expressions.
	Col = expr.V
	// ConstI, ConstF, ConstS build literals.
	ConstI = expr.LitI
	ConstF = expr.LitF
	ConstS = expr.LitS
	// Arithmetic over value expressions.
	Add2 = expr.AddV
	Sub  = expr.SubV
	Mul2 = expr.MulV
	Div  = expr.DivV
)

// Comparison operators.
const (
	Eq = expr.CEq
	Ne = expr.CNe
	Lt = expr.CLt
	Le = expr.CLe
	Gt = expr.CGt
	Ge = expr.CGe
)

// Int, Float, and Str build typed values.
var (
	Int   = mring.Int
	Float = mring.Float
	Str   = mring.Str
)

// RowE builds a tuple from Go scalars, returning an error on an
// unsupported type (so data loaders can surface bad input instead of
// crashing). Accepted: every signed and unsigned integer type (uint and
// uint64 must fit in int64), float32, float64, string, and Value.
func RowE(vs ...any) (Tuple, error) {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = mring.Int(int64(x))
		case int8:
			t[i] = mring.Int(int64(x))
		case int16:
			t[i] = mring.Int(int64(x))
		case int32:
			t[i] = mring.Int(int64(x))
		case int64:
			t[i] = mring.Int(x)
		case uint:
			if uint64(x) > math.MaxInt64 {
				return nil, fmt.Errorf("ivm: Row value %d at position %d overflows int64", x, i)
			}
			t[i] = mring.Int(int64(x))
		case uint8:
			t[i] = mring.Int(int64(x))
		case uint16:
			t[i] = mring.Int(int64(x))
		case uint32:
			t[i] = mring.Int(int64(x))
		case uint64:
			if x > math.MaxInt64 {
				return nil, fmt.Errorf("ivm: Row value %d at position %d overflows int64", x, i)
			}
			t[i] = mring.Int(int64(x))
		case float32:
			t[i] = mring.Float(float64(x))
		case float64:
			t[i] = mring.Float(x)
		case string:
			t[i] = mring.Str(x)
		case mring.Value:
			t[i] = x
		default:
			return nil, fmt.Errorf("ivm: Row does not accept %T (position %d)", v, i)
		}
	}
	return t, nil
}

// Row builds a tuple from Go scalars (integers, floats, strings, and
// Values); it panics on an unsupported type. Use RowE to get an error
// instead.
func Row(vs ...any) Tuple {
	t, err := RowE(vs...)
	if err != nil {
		panic(err)
	}
	return t
}

// Batch is an update batch: inserted and deleted tuples for one base
// table (deletions carry negative multiplicities).
type Batch struct{ rel *mring.Relation }

// NewBatch creates an empty batch with the given schema.
func NewBatch(schema Schema) *Batch {
	return &Batch{rel: mring.NewRelation(schema)}
}

// arityCheck rejects tuples that do not match the batch schema, instead
// of corrupting downstream evaluation.
func (b *Batch) arityCheck(t Tuple) error {
	if len(t) != len(b.rel.Schema()) {
		return fmt.Errorf("ivm: tuple %v has arity %d, batch schema %v wants %d",
			t, len(t), []string(b.rel.Schema()), len(b.rel.Schema()))
	}
	return nil
}

// Insert adds one insertion. Tuples whose arity mismatches the batch
// schema are rejected with an error.
func (b *Batch) Insert(t Tuple) error { return b.Change(t, 1) }

// Delete adds one deletion (arity-checked like Insert).
func (b *Batch) Delete(t Tuple) error { return b.Change(t, -1) }

// Change adds a tuple with an explicit multiplicity delta (arity-checked
// like Insert).
func (b *Batch) Change(t Tuple, delta float64) error {
	if err := b.arityCheck(t); err != nil {
		return err
	}
	if err := finiteChange(b.rel, t, delta); err != nil {
		return err
	}
	b.rel.Add(t, delta)
	return nil
}

// finiteChange refuses a delta that would leave t's multiplicity in rel
// NaN or infinite: such a value poisons every view it folds into, and
// no later change can bring it back. A finite delta below half an ulp of
// MaxFloat64 cannot carry a finite multiplicity past it, so only a
// larger one looks up the multiplicity it adds to.
func finiteChange(rel *mring.Relation, t Tuple, delta float64) error {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("ivm: multiplicity delta %v for tuple %v is not finite", delta, t)
	}
	if math.Abs(delta) >= 0x1p970 {
		if sum := rel.Get(t) + delta; math.IsInf(sum, 0) {
			return fmt.Errorf("ivm: multiplicity of tuple %v would overflow to %v", t, sum)
		}
	}
	return nil
}

// Len returns the number of distinct changed tuples.
func (b *Batch) Len() int { return b.rel.Len() }

// Schema returns the batch's column names.
func (b *Batch) Schema() Schema { return b.rel.Schema() }

// Result is a read view over the maintained query result.
type Result struct{ rel *mring.Relation }

// Foreach visits every result tuple with its aggregate value, in the
// deterministic sorted tuple order.
func (r *Result) Foreach(f func(t Tuple, agg float64)) { r.rel.ForeachSorted(f) }

// Get returns the aggregate value for one group.
func (r *Result) Get(t Tuple) float64 { return r.rel.Get(t) }

// Len returns the number of result groups.
func (r *Result) Len() int { return r.rel.Len() }

// String renders the result deterministically.
func (r *Result) String() string { return r.rel.String() }
