package cluster

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
)

// worker is one worker node as the driver sees it. Its methods work on
// relations and row sequences, never on bytes. Shard is the in-process
// implementation: fragments are handed over by reference. remoteWorker
// encodes each call into the framed protocol of proto.go, to be served
// by a Shard in a worker process (server.go). The driver never calls one
// worker concurrently with itself.
type worker interface {
	// runBlock executes one prepared distributed block over the worker's
	// fragments; watch names the watched views the block writes, whose
	// change sinks come back in the stage.
	runBlock(b *block, watch []string) (stage, error)
	// pack readies a driver-held fragment for installScatter on this kind
	// of worker; one pack may be installed on every worker (broadcast).
	pack(r *mring.Relation) rows
	// installScatter clears the target fragment and fills it from a packed
	// fragment (nil: leave it empty). With capture it returns the target's
	// contents after and before the install.
	installScatter(name string, schema mring.Schema, src rows, broadcast, capture bool) (cur, old rows, err error)
	// installRepart rebuilds the target fragment from the exchange pieces
	// addressed to this worker, one per sender in worker-index order (nil:
	// nothing from that sender). Capture as for installScatter.
	installRepart(name string, srcSchema, schema mring.Schema, from []rows, capture bool) (cur, old rows, err error)
	// installDelta replaces a fragment: a relation is handed over as is, a
	// copyOf becomes the worker's own copy, any other row sequence (an
	// update-batch deal) is rebuilt in order.
	installDelta(name string, schema mring.Schema, src rows) error
	// partitionOut splits the worker's fragment of src by key into one
	// piece per destination worker (nil: empty) — the sender half of an
	// exchange.
	partitionOut(src string, schema mring.Schema, keyPos []int) ([]rows, error)
	// fetch returns the worker's fragment of a relation, nil when it holds
	// none (an absent replica differs from an empty one).
	fetch(name string, schema mring.Schema) (rows, error)
	// retain drops every fragment not named in keep.
	retain(keep map[string]bool) error
	// snapshot and restore move the worker's whole state in and out of a
	// durability checkpoint, bucket-table sizes included.
	snapshot() (map[string]Frag, error)
	restore(frags map[string]Frag) error
	close() error
}

// stage is one worker's outcome of a distributed block.
type stage struct {
	stats eval.Stats
	// compute is the worker's measured time over the statements.
	compute time.Duration
	// sinks holds each watched view's change sink, in the worker's fold
	// order (a missing or nil entry is an empty sink).
	sinks map[string]rows
}

// rows is a row sequence in a fixed order: a relation (its Foreach
// order), a decoded wire payload (wire order), or a deal.
type rows interface {
	Foreach(f func(t mring.Tuple, m float64))
	Len() int
}

// copyOf is a shared relation every receiving worker must hold its own
// copy of (a replicated view's warm load).
type copyOf struct{ *mring.Relation }

// row and rowList are the rows one worker is dealt from an update batch,
// in deal order.
type row struct {
	t mring.Tuple
	m float64
}

type rowList []row

func (l rowList) Len() int { return len(l) }

func (l rowList) Foreach(f func(t mring.Tuple, m float64)) {
	for _, r := range l {
		f(r.t, r.m)
	}
}

// wireSize is what moving a fragment costs on the wire: a process
// worker's payload length, or the columnar encoding of an in-process
// relation (the simulator's measured traffic).
func wireSize(r rows) int64 {
	switch r := r.(type) {
	case *shipped:
		return int64(len(r.raw))
	case *mring.Relation:
		return encodeSize(r)
	}
	return 0
}

// node holds the relation fragments of one worker (or the driver).
type node struct {
	rels map[string]*mring.Relation
}

func newNode() node { return node{rels: make(map[string]*mring.Relation)} }

func (n *node) rel(name string, schema mring.Schema) *mring.Relation {
	r := n.rels[name]
	if r == nil {
		r = mring.NewRelation(schema)
		n.rels[name] = r
	}
	return r
}

func (n *node) retain(keep map[string]bool) {
	for name := range n.rels {
		if !keep[name] {
			delete(n.rels, name)
		}
	}
}

// snapshot encodes every fragment carrying restorable state, including
// empty-but-sized ones, so a restore reproduces the physical layout.
func (n *node) snapshot() map[string]Frag {
	out := map[string]Frag{}
	for name, r := range n.rels {
		if worthSnapshot(r) {
			out[name] = snapFrag(r)
		}
	}
	return out
}

// runStmtOn evaluates a compute statement against one node's state,
// dispatching covered aggregates by the block's plan table, and returns
// the evaluation statistics. It only reads the schema map and mutates
// nothing but the node's own fragments (and the caller-private sink), so
// concurrent calls on distinct nodes are race-free.
func runStmtOn(n *node, schemas map[string]mring.Schema, s dist.Stmt, kernels eval.Kernels, sink *mring.Relation) eval.Stats {
	env := eval.NewEnv()
	// Bind every relation the statement reads; lazily create fragments.
	walkRefs(s.RHS, func(r *expr.Rel) {
		name := eval.RelEnvName(r)
		env.Bind(name, n.rel(name, schemas[name]))
	})
	target := n.rel(s.LHS, schemas[s.LHS])
	ctx := eval.NewCtx(env)
	ctx.Kernels = kernels
	if sink != nil {
		ctx.CaptureFolds(target, sink)
	}
	// FoldStmt runs aggregate statements (pre-aggregations and view
	// maintenance) through a per-worker hash-native group table over the
	// node's own fragments; the tables stay worker-local here and meet
	// only in the driver's gather, in worker-index order.
	ctx.FoldStmt(target, s.Op, s.RHS)
	return ctx.Stats
}

// Shard is one worker node: its fragments and the operations the driver
// runs on them. A simulated cluster calls its shards in process; a worker
// process serves one fresh shard per driver connection, decoding each
// request into the same calls (server.go), so the two deployments mutate
// fragments through one code path and stay bitwise-identical. A shard's
// operations never run concurrently, and no shard touches another's state.
type Shard struct {
	node
	workers int
	// blocks holds the blocks deployed to a worker process, by id, until
	// a retain or restore retires them. In-process shards run the
	// driver's prepared blocks directly and leave it empty.
	blocks map[uint64]*block
}

// stageBlock returns the deployed block a stage names, deploying it first
// when the request carries its blob.
func (sh *Shard) stageBlock(id uint64, deploy []byte) (*block, error) {
	if len(deploy) > 0 {
		b, err := decodeDeploy(id, deploy)
		if err != nil {
			return nil, err
		}
		if sh.blocks == nil {
			sh.blocks = make(map[uint64]*block)
		}
		sh.blocks[id] = b
		return b, nil
	}
	if b := sh.blocks[id]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("cluster: stage names block %d, which is not deployed", id)
}

func (sh *Shard) runBlock(b *block, watch []string) (stage, error) {
	var st stage
	for _, name := range watch {
		s, ok := b.schemas[name]
		if !ok {
			return stage{}, fmt.Errorf("cluster: watch of %q without schema", name)
		}
		if st.sinks == nil {
			st.sinks = make(map[string]rows, len(watch))
		}
		st.sinks[name] = mring.NewRelation(s)
	}
	start := time.Now()
	for _, s := range b.stmts {
		sink, _ := st.sinks[s.LHS].(*mring.Relation)
		st.stats.Add(runStmtOn(&sh.node, b.schemas, s, b.kernels, sink))
	}
	st.compute = time.Since(start)
	return st, nil
}

func (sh *Shard) pack(r *mring.Relation) rows { return r }

func (sh *Shard) installScatter(name string, schema mring.Schema, src rows, _, capture bool) (rows, rows, error) {
	return sh.replace(name, schema, capture, func(dst *mring.Relation) {
		if src != nil {
			installFragment(dst, src)
		}
	})
}

func (sh *Shard) installRepart(name string, srcSchema, schema mring.Schema, from []rows, capture bool) (rows, rows, error) {
	var incoming *mring.Relation
	for _, f := range from {
		if f == nil || f.Len() == 0 {
			continue
		}
		if incoming == nil {
			incoming = mring.NewRelation(srcSchema)
		}
		f.Foreach(incoming.Add)
	}
	return sh.replace(name, schema, capture, func(dst *mring.Relation) {
		if incoming != nil {
			dst.Merge(incoming)
		}
	})
}

// replace clears the target fragment and refills it; with capture it
// returns the contents after and before.
func (sh *Shard) replace(name string, schema mring.Schema, capture bool, fill func(dst *mring.Relation)) (rows, rows, error) {
	dst := sh.rel(name, schema)
	var old *mring.Relation
	if capture {
		old = dst.Clone()
	}
	dst.Clear()
	fill(dst)
	if !capture {
		return nil, nil, nil
	}
	return dst, old, nil
}

func (sh *Shard) installDelta(name string, schema mring.Schema, src rows) error {
	switch r := src.(type) {
	case *mring.Relation:
		sh.rels[name] = r
	case copyOf:
		sh.rels[name] = r.Clone()
	default:
		fresh := mring.NewRelation(schema)
		if src != nil {
			src.Foreach(fresh.Add)
		}
		sh.rels[name] = fresh
	}
	return nil
}

func (sh *Shard) partitionOut(src string, schema mring.Schema, keyPos []int) ([]rows, error) {
	for _, p := range keyPos {
		if p < 0 || p >= len(schema) {
			return nil, fmt.Errorf("cluster: key position %d outside schema %v", p, schema)
		}
	}
	out := make([]rows, sh.workers)
	for i, f := range dist.SplitByKey(sh.rel(src, schema), keyPos, sh.workers) {
		if f != nil && f.Len() > 0 {
			out[i] = f
		}
	}
	return out, nil
}

func (sh *Shard) fetch(name string, _ mring.Schema) (rows, error) {
	if r := sh.rels[name]; r != nil {
		return r, nil
	}
	return nil, nil
}

func (sh *Shard) retain(keep map[string]bool) error {
	sh.node.retain(keep)
	sh.blocks = nil
	return nil
}

func (sh *Shard) snapshot() (map[string]Frag, error) { return sh.node.snapshot(), nil }

// restore validates every fragment before touching any state, so a
// corrupt checkpoint never leaves the shard half-restored.
func (sh *Shard) restore(frags map[string]Frag) error {
	rels, err := restoreFrags(frags)
	if err != nil {
		return err
	}
	sh.rels = rels
	sh.blocks = nil
	return nil
}

func (sh *Shard) close() error { return nil }

// installFragment fills the just-cleared dst with a shipped fragment.
// When the fragment has a columnar form — an in-process relation's
// mirror, or a columnar wire payload — the rows merge straight from the
// batch and the batch becomes dst's mirror (the receiver keeps the
// fragment columnar); otherwise the rows merge one by one. Either way
// rows land in the fragment's order, so dst's storage is bitwise
// independent of which path ran.
func installFragment(dst *mring.Relation, src rows) {
	var batch *pool.ColBatch
	switch s := src.(type) {
	case *mring.Relation:
		batch = fragmentBatch(s)
	case *shipped:
		batch = s.Batch
	}
	if batch == nil {
		src.Foreach(dst.Add)
		return
	}
	batch.MergeInto(dst)
	if dst.Len() == batch.Len() {
		pool.AttachMirror(dst, batch)
	}
}
