package cluster

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/wire"
)

// block is one compiled statement block prepared for execution, once: its
// statements, the schemas they bind, and the prepared plans of its
// compute statements. The driver
// prepares each block of a program the first time it runs it
// (Cluster.prepare); a worker process builds its own copy from the
// block's deploy blob the first time a stage names it (Shard.stageBlock).
// Either way the plans live exactly as long as the block, which lives
// until a Restore retires the programs it belongs to.
type block struct {
	// id names the block on process workers; a cluster never reuses one.
	id      uint64
	stmts   []dist.Stmt
	schemas map[string]mring.Schema
	plans   eval.Plans
	// deploy is the encoded deployment a process worker builds the block
	// from; nil for in-process shards and driver-side blocks.
	deploy []byte
}

func newBlock(id uint64, stmts []dist.Stmt, schemas map[string]mring.Schema) (*block, error) {
	var es []expr.Expr
	for _, s := range stmts {
		if _, ok := s.RHS.(*dist.Xform); !ok {
			es = append(es, s.RHS)
		}
	}
	plans, err := eval.Prepare(es...)
	if err != nil {
		return nil, fmt.Errorf("cluster: block %d: %w", id, err)
	}
	return &block{id: id, stmts: stmts, schemas: schemas, plans: plans}, nil
}

// A deploy blob is a distributed block's statements — target, operator,
// expression tree (expr.Write) — and then the schemas they bind, in name
// order. It crosses once per block and worker, never per stage.
func encodeDeploy(stmts []dist.Stmt, schemas map[string]mring.Schema) []byte {
	var e wire.Enc
	e.Int(len(stmts))
	for _, s := range stmts {
		e.Str(s.LHS)
		e.Byte(byte(s.Op))
		expr.Write(&e, s.RHS)
	}
	wire.PutMap(&e, schemas, func(e *wire.Enc, s mring.Schema) { e.Strs(s) })
	return e.B
}

// decodeDeploy builds a worker's copy of a block from its deploy blob.
// The statements are checked before anything lowers or runs them.
func decodeDeploy(id uint64, blob []byte) (*block, error) {
	d := wire.NewDec(blob)
	// A statement is at least an empty target, an operator and a tag.
	stmts := make([]dist.Stmt, d.Count(3))
	for i := range stmts {
		s := &stmts[i]
		s.LHS = d.Str()
		if s.Op = eval.AssignOp(d.Byte()); s.Op > eval.OpSet {
			d.Fail("unknown statement operator %d", s.Op)
		}
		s.RHS = expr.Read(&d)
	}
	schemas := wire.GetMap(&d, 2, (*wire.Dec).Schema)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: decode deployment of block %d: %w", id, err)
	}
	if err := checkStmts(stmts, schemas); err != nil {
		return nil, fmt.Errorf("cluster: deployment of block %d: %w", id, err)
	}
	return newBlock(id, stmts, schemas)
}

// checkStmts verifies that statements are well formed for the
// evaluator, which treats a malformed program as a programming error
// and panics: every node is present and of a kind the evaluator runs,
// every relation has a schema of its declared arity, every variable is
// bound before a value term, group-by or materialization reads it, and
// every statement's arity matches its target's. Compiled programs pass by
// construction; a corrupt or hostile deploy blob fails here instead of
// panicking mid-stage.
func checkStmts(stmts []dist.Stmt, schemas map[string]mring.Schema) error {
	for _, s := range stmts {
		target, ok := schemas[s.LHS]
		if !ok {
			return fmt.Errorf("statement target %q without schema", s.LHS)
		}
		bound, err := checkExpr(s.RHS, nil, schemas, 0)
		if err != nil {
			return fmt.Errorf("statement %s: %w", s.LHS, err)
		}
		out := s.RHS.Schema()
		if len(out) != len(target) {
			return fmt.Errorf("statement %s: arity %d into a target of arity %d", s.LHS, len(out), len(target))
		}
		if err := needBound(out, bound); err != nil {
			return fmt.Errorf("statement %s: %w", s.LHS, err)
		}
	}
	return nil
}

// checkExpr checks one node evaluated with the variables in bound already
// bound, and returns the variables bound whenever the node emits.
func checkExpr(e expr.Expr, bound mring.Schema, schemas map[string]mring.Schema, depth int) (mring.Schema, error) {
	if depth > expr.MaxDepth {
		return nil, fmt.Errorf("tree nested deeper than %d", expr.MaxDepth)
	}
	depth++
	switch x := e.(type) {
	case *expr.Const:
		return bound, nil
	case *expr.Val:
		return bound, checkValue(x.E, bound, depth)
	case *expr.Cmp:
		if err := checkValue(x.L, bound, depth); err != nil {
			return nil, err
		}
		return bound, checkValue(x.R, bound, depth)
	case *expr.Rel:
		name := eval.RelEnvName(x)
		s, ok := schemas[name]
		if !ok {
			return nil, fmt.Errorf("relation %q without schema", name)
		}
		if len(s) != len(x.Cols) {
			return nil, fmt.Errorf("relation %q read at arity %d, schema has %d", name, len(x.Cols), len(s))
		}
		return bound.Union(x.Cols), nil
	case *expr.Mul:
		var err error
		for _, f := range x.Factors {
			if bound, err = checkExpr(f, bound, schemas, depth); err != nil {
				return nil, err
			}
		}
		return bound, nil
	case *expr.Plus:
		// Each term emits under its own bindings: only what every term
		// binds is bound after the union.
		var out mring.Schema
		for i, t := range x.Terms {
			b, err := checkExpr(t, bound, schemas, depth)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out = b
			} else {
				out = out.Intersect(b)
			}
		}
		if len(x.Terms) == 0 {
			return bound, nil
		}
		return out, nil
	case *expr.Agg:
		b, err := checkExpr(x.Body, bound, schemas, depth)
		if err != nil {
			return nil, err
		}
		return bound.Union(x.GroupBy), needBound(x.GroupBy, b)
	case *expr.Assign:
		if x.Q == nil {
			if err := checkValue(x.ValE, bound, depth); err != nil {
				return nil, err
			}
			return bound.Union(mring.Schema{x.Var}), nil
		}
		b, err := checkExpr(x.Q, bound, schemas, depth)
		if err != nil {
			return nil, err
		}
		qs := x.Q.Schema()
		return bound.Union(qs).Union(mring.Schema{x.Var}), needBound(qs, b)
	case *expr.Exists:
		b, err := checkExpr(x.Body, bound, schemas, depth)
		if err != nil {
			return nil, err
		}
		s := x.Body.Schema()
		return bound.Union(s), needBound(s, b)
	case nil:
		return nil, fmt.Errorf("missing node")
	default:
		return nil, fmt.Errorf("node %T cannot run on a worker", e)
	}
}

// checkValue checks that a value term is present and reads only bound
// variables.
func checkValue(v expr.VExpr, bound mring.Schema, depth int) error {
	if depth > expr.MaxDepth {
		return fmt.Errorf("tree nested deeper than %d", expr.MaxDepth)
	}
	switch x := v.(type) {
	case expr.VarRef:
		if !bound.Contains(x.Name) {
			return fmt.Errorf("variable %q read unbound", x.Name)
		}
		return nil
	case expr.Lit:
		return nil
	case expr.Arith:
		if err := checkValue(x.L, bound, depth+1); err != nil {
			return err
		}
		return checkValue(x.R, bound, depth+1)
	case nil:
		return fmt.Errorf("missing value term")
	default:
		return fmt.Errorf("value term %T cannot run on a worker", v)
	}
}

func needBound(cols, bound mring.Schema) error {
	for _, c := range cols {
		if !bound.Contains(c) {
			return fmt.Errorf("column %q emitted unbound", c)
		}
	}
	return nil
}
