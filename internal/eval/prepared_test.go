package eval_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite "+digestFile+" from this run")

const digestFile = "testdata/prepared.digests"

// TestPreparedMatchesReference runs every trigger statement and view
// definition of the TPC-H and TPC-DS programs compiled with the default
// options, and every compute statement of the TPC-H programs' O3
// distributed blocks run on one node, through their prepared plans over
// a streamed database. Two references hold each run:
//
//   - the oracle (internal/baseline): each statement's result must equal
//     the oracle's evaluation of the same tree over the same database, at
//     relative baseline.Tolerance, an absent group read as zero;
//   - a committed digest per program (testdata/prepared.digests): each
//     statement's rows in order with their multiplicity bits and its
//     eval.Stats fold into one hash that must equal the committed one.
//
// The digests pin the plans' emission order, fold order, float
// arithmetic and counted work; they do not pin which tuples a plan
// touches, beyond their number in eval.Stats. Regenerate them with
// -update only for a change meant to move one of those, and say so.
// They are checked on amd64, where the digests were taken: elsewhere
// the compiler may fuse a multiply and an add, which moves float bits.
func TestPreparedMatchesReference(t *testing.T) {
	want := readDigests(t)
	got := map[string]string{}
	check := func(t *testing.T, name string, h *harness) {
		got[name] = fmt.Sprintf("%016x", uint64(h.dig))
		if !*update && runtime.GOARCH == "amd64" && got[name] != want[name] {
			t.Fatalf("digest %s, committed %q: the plans moved a row, a multiplicity bit or a count",
				got[name], want[name])
		}
	}
	for _, q := range tpch.Queries() {
		gen := tpch.NewGenerator(0.1, 3)
		init := map[string]*mring.Relation{}
		for _, tbl := range q.Tables {
			if tbl == tpch.Nation || tbl == tpch.Region {
				init[tbl] = gen.Static(tbl)
			}
		}
		stream := tpch.NewStream(gen, q.Tables)
		var batches []tpch.Batch
		for i := 0; i < 6; i++ {
			batches = append(batches, stream.NextBatches(100)...)
		}
		prog := compileQuery(t, q.Name, q.Def, q.BaseSchemas())
		t.Run(q.Name, func(t *testing.T) { check(t, q.Name, runLocal(t, prog, init, batches)) })
		t.Run(q.Name+"/O3", func(t *testing.T) {
			parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
			check(t, q.Name+"/O3", runDist(t, prog, dist.CompileProgram(prog, parts, dist.O3), batches))
		})
	}
	for _, q := range tpcds.Queries() {
		gen := tpcds.NewGenerator(0.02, 3)
		init := map[string]*mring.Relation{}
		for _, tbl := range q.Tables {
			if tbl != tpcds.StoreSales {
				init[tbl] = gen.Static(tbl)
			}
		}
		next := gen.FactBatches(64)
		var batches []tpch.Batch
		for b := next(); b != nil && len(batches) < 6; b = next() {
			batches = append(batches, tpch.Batch{Table: tpcds.StoreSales, Rel: b})
		}
		prog := compileQuery(t, q.Name, q.Def, q.BaseSchemas())
		t.Run(q.Name, func(t *testing.T) { check(t, q.Name, runLocal(t, prog, init, batches)) })
	}
	if *update {
		for k, v := range got {
			want[k] = v
		}
		var lines []string
		for k, v := range want {
			lines = append(lines, k+" "+v+"\n")
		}
		sort.Strings(lines)
		if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readDigests(t *testing.T) map[string]string {
	data, err := os.ReadFile(digestFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, d, ok := strings.Cut(line, " "); ok {
			out[name] = d
		}
	}
	return out
}

func compileQuery(t *testing.T, name string, def expr.Expr, schemas map[string]mring.Schema) *compile.Program {
	prog, err := compile.Compile(name, def, schemas, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runLocal runs the program's warm start over init, its triggers over
// the batches, and finally every warm-start view definition again over
// the accumulated base tables.
func runLocal(t *testing.T, prog *compile.Program, init map[string]*mring.Relation, batches []tpch.Batch) *harness {
	var trees []expr.Expr
	for _, trg := range prog.Triggers {
		for _, s := range trg.Stmts {
			trees = append(trees, s.RHS)
		}
	}
	var warm []*compile.ViewDef
	for _, v := range prog.Views {
		if !v.Transient && !expr.HasDelta(v.Def) {
			warm = append(warm, v)
			trees = append(trees, v.Def)
		}
	}
	h := newHarness(t, trees)
	for _, v := range prog.Views {
		h.ensure(v.Name, v.Schema)
	}
	for n, schema := range prog.Bases {
		h.ensure(n, schema)
		if init[n] != nil {
			h.fold(n, eval.OpAdd, init[n], init[n])
		}
	}
	for _, v := range warm {
		h.step("warm start "+v.Name, v.Def, v.Name, eval.OpSet)
	}
	for bi, b := range batches {
		h.batch(b)
		for _, st := range prog.Triggers[b.Table].Stmts {
			h.step(fmt.Sprintf("batch %d trigger %s stmt %s", bi, b.Table, st.LHS), st.RHS, st.LHS, st.Op)
		}
		h.fold(b.Table, eval.OpAdd, b.Rel, b.Rel)
	}
	for _, v := range warm {
		h.step("final "+v.Name, v.Def, "", 0)
	}
	return h
}

// runDist runs the distributed programs' blocks on one node: a
// transformer folds a copy of its source into its target, and every
// compute statement runs as a step.
func runDist(t *testing.T, prog *compile.Program, dps map[string]*dist.DistProgram, batches []tpch.Batch) *harness {
	var trees []expr.Expr
	for _, dp := range dps {
		for _, b := range dp.Blocks {
			for _, s := range b.Stmts {
				if !s.IsXform() {
					trees = append(trees, s.RHS)
				}
			}
		}
	}
	h := newHarness(t, trees)
	for n, schema := range dist.ViewSchemas(prog) {
		h.ensure(n, schema)
	}
	for bi, b := range batches {
		h.batch(b)
		for _, blk := range dps[b.Table].Blocks {
			for _, st := range blk.Stmts {
				if x, ok := st.RHS.(*dist.Xform); ok {
					src := eval.RelEnvName(x.Body.(*expr.Rel))
					h.ensure(st.LHS, x.Schema())
					h.fold(st.LHS, st.Op, h.ensure(src, x.Schema()).Clone(), h.raw[src])
					continue
				}
				h.step(fmt.Sprintf("batch %d %v", bi, st), st.RHS, st.LHS, st.Op)
			}
		}
	}
	return h
}

// harness runs prepared plans over one database, holds each statement
// to the oracle and folds what it produced into a digest. The oracle
// reads raw: every change made to each relation, kept apart in order.
type harness struct {
	t   *testing.T
	raw baseline.Changes
	env *eval.Env
	ctx *eval.Ctx
	dig digest
}

func newHarness(t *testing.T, trees []expr.Expr) *harness {
	plans, err := eval.Prepare(trees...)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, raw: baseline.Changes{}, dig: digestSeed}
	h.env = eval.EnvOf(map[string]*mring.Relation{})
	h.ctx = eval.NewCtx(h.env)
	h.ctx.Plans = plans
	return h
}

// ensure returns relation name, defining it empty when missing.
func (h *harness) ensure(name string, schema mring.Schema) *mring.Relation {
	if r := h.env.Rel(name); r != nil {
		return r
	}
	h.raw[name] = nil
	return h.env.Define(name, schema)
}

// fold folds r into target, and changes, the rows r was made of, into
// target's change stream.
func (h *harness) fold(target string, op eval.AssignOp, r *mring.Relation, changes baseline.Source) {
	dst := h.env.MustRel(target)
	if op == eval.OpSet {
		dst.Clear()
		h.raw[target] = nil
	}
	dst.Merge(r)
	h.raw.Add(target, changes)
}

// batch binds b as its table's Δ relation.
func (h *harness) batch(b tpch.Batch) {
	name := eval.DeltaName(b.Table)
	h.env.Bind(name, b.Rel.Clone())
	h.raw[name] = nil
	h.raw.Add(name, b.Rel)
}

// step evaluates rhs, holds it to the oracle, digests its rows and
// stats, and folds it into target (none when target is empty). Relations
// rhs reads that do not exist yet are defined empty, as a cluster node
// creates its fragments on first use.
func (h *harness) step(label string, rhs expr.Expr, target string, op eval.AssignOp) {
	for _, a := range h.ctx.Plans[rhs].Accesses() {
		h.ensure(a.Env, a.Rel.Cols)
	}
	if target != "" {
		h.ensure(target, rhs.Schema())
	}
	h.ctx.Stats = eval.Stats{}
	var rows baseline.Rows
	collect := func(k mring.Tuple, m float64) { rows = append(rows, baseline.Row{Tuple: k.Clone(), M: m}) }
	r := h.ctx.Materialize(rhs)
	r.Foreach(collect)
	if d := baseline.Diff(r, baseline.Eval(rhs, baseline.Of(h.raw))); d != "" {
		h.t.Fatalf("%s diverges from the oracle: %s\n%v", label, d, rhs)
	}
	h.dig.word(uint64(len(rows)))
	for _, row := range rows {
		h.dig.word(row.Tuple.Hash())
		h.dig.word(math.Float64bits(row.M))
	}
	s := h.ctx.Stats
	for _, n := range []int64{s.Lookups, s.Scans, s.Emits, s.IndexOps} {
		h.dig.word(uint64(n))
	}
	if target != "" {
		h.fold(target, op, r, rows)
	}
}

// digest is an order-sensitive FNV-1a hash over 64-bit words.
type digest uint64

const digestSeed digest = 14695981039346656037

func (d *digest) word(w uint64) { *d = (*d ^ digest(w)) * 1099511628211 }
