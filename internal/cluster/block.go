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

// newBlock prepares a block's statements against the schemas they bind,
// refusing a block that evaluation would otherwise panic on mid-stage:
// eval.Prepare refuses missing or unknown nodes and unbound or
// mixed-union reads, and checkSchemas refuses relations without schemas
// or read at another arity. A distributed block runs every statement on
// the workers, where a transformer cannot run; a driver block's
// transformers are the driver's to run, and only their relations are
// checked.
func newBlock(id uint64, mode dist.LocKind, stmts []dist.Stmt, schemas map[string]mring.Schema) (*block, error) {
	var es []expr.Expr
	for _, s := range stmts {
		if _, ok := s.RHS.(*dist.Xform); !ok || mode == dist.LDist {
			es = append(es, s.RHS)
		}
	}
	plans, err := eval.Prepare(es...)
	if err == nil {
		err = checkSchemas(stmts, plans, schemas)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: block %d: %w", id, err)
	}
	return &block{id: id, stmts: stmts, schemas: schemas, plans: plans}, nil
}

// checkSchemas checks prepared statements against the schemas they bind:
// every relation a statement reads, a transformer's source included, has
// a schema of the arity it is read at, and every target has a schema of
// its statement's arity.
func checkSchemas(stmts []dist.Stmt, plans eval.Plans, schemas map[string]mring.Schema) error {
	arity := func(name string, n int) error {
		s, ok := schemas[name]
		if !ok {
			return fmt.Errorf("relation %q without schema", name)
		}
		if len(s) != n {
			return fmt.Errorf("relation %q at arity %d, schema has %d", name, n, len(s))
		}
		return nil
	}
	for _, s := range stmts {
		var reads []*expr.Rel
		if x, ok := s.RHS.(*dist.Xform); ok {
			src, ok := x.Body.(*expr.Rel)
			if !ok {
				return fmt.Errorf("statement %s: transformer body is not a relation reference", s.LHS)
			}
			reads = []*expr.Rel{src}
		} else {
			for _, a := range plans[s.RHS].Accesses() {
				reads = append(reads, a.Rel)
			}
		}
		for _, r := range reads {
			if err := arity(eval.RelEnvName(r), len(r.Cols)); err != nil {
				return fmt.Errorf("statement %s: %w", s.LHS, err)
			}
		}
		if err := arity(s.LHS, len(s.RHS.Schema())); err != nil {
			return fmt.Errorf("statement %s: target %w", s.LHS, err)
		}
	}
	return nil
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

// decodeDeploy builds a worker's copy of a block from its deploy blob,
// checked as the driver checked its own.
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
	return newBlock(id, dist.LDist, stmts, schemas)
}
