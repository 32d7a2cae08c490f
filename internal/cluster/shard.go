package cluster

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/mring"
	"repro/internal/pool"
)

// worker is one worker node as the driver sees it. Its methods work on
// relations and row sequences, never on bytes. Shard is the in-process
// implementation: row sequences are handed over by reference, and copied
// into the shard's own fragments as they land. remoteWorker
// encodes each call into the framed protocol of proto.go, to be served
// by a Shard in a worker process (server.go). The driver never calls one
// worker concurrently with itself.
type worker interface {
	// stage runs one step of a program on the worker: the request's
	// installs in order, then its block, then its outputs. It is the only
	// call a transaction, a warm load or a view read makes.
	stage(req *stageReq) (stageResp, error)
	// pack readies driver-held rows for an install on this kind of
	// worker; one pack may be installed on every worker (broadcast).
	pack(r rows) rows
	// snapshot and restore move the worker's whole state in and out of a
	// durability checkpoint, bucket-table sizes included.
	snapshot() (map[string]Frag, error)
	restore(frags map[string]Frag) error
	close() error
}

// installKind says how an install fills its target fragment. Every kind
// copies the rows, in their order, into a fragment the shard owns: the
// rows may alias the driver's or another shard's storage, and the shard
// reuses the fragment's storage from install to install.
type installKind byte

const (
	// installReplace makes the rows the fragment's contents: an update
	// batch's deal, a warm load or a caller's batch partition. It refills
	// the fragment when it has the install's arity, and replaces it with a
	// fresh one otherwise.
	installReplace installKind = iota
	// installScatter clears the fragment and fills it from one packed
	// fragment (nil: leaves it empty): a keyed scatter piece or a
	// broadcast replica.
	installScatter
	// installRepart clears the fragment and rebuilds it from the exchange
	// pieces addressed to this worker, one per sender in worker-index
	// order (nil: nothing from that sender).
	installRepart
)

// install is one fragment a stage moves onto the worker before its block
// runs.
type install struct {
	kind   installKind
	name   string
	schema mring.Schema
	// from holds the rows: one entry for a replace or scatter, one per
	// sender for a repartition.
	from []rows
	// capture asks for the replacement: the fragment's contents after and
	// before the install, which the driver folds into the watched view's
	// batch delta.
	capture bool
}

// output is a worker-side read that rides a stage's response, taken after
// the block runs: a fragment read whole for a gather or a view read, or
// dealt by key into one piece per destination worker for an exchange.
type output struct {
	src    string
	schema mring.Schema
	split  bool
	keyPos []int
}

// stageReq is one step of a program as one worker receives it.
type stageReq struct {
	installs []install
	// block runs after the installs; nil runs none. A request decoded off
	// the wire names the block by id only, until the serving shard
	// resolves it.
	block *block
	// deploy is the block's deploy blob, sent with the first stage a
	// process worker runs of it.
	deploy []byte
	// watch names the watched worker-maintained views the block writes;
	// their change sinks come back in the response.
	watch   []string
	outputs []output
}

// stageResp is one worker's outcome of a step.
type stageResp struct {
	stats eval.Stats
	// compute is the worker's measured time over the block's statements.
	compute time.Duration
	// sinks holds each watched view's change sink, in the worker's fold
	// order (a missing or nil entry is an empty sink).
	sinks map[string]rows
	// replaced holds, per install in request order, the fragment's
	// contents after and before it; empty when no install captures.
	replaced [][2]rows
	// outs holds, per output in request order, the fragment read (one
	// entry, nil when empty or absent) or its pieces by destination (nil:
	// nothing for that worker).
	outs [][]rows
}

// rows is a row sequence in a fixed order: a relation (its Foreach
// order), a decoded wire payload (wire order), or a deal.
type rows = pool.Rows

// row and rowList are rows in deal order: what one worker is dealt of an
// update batch, which ships under its install's schema.
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

// piece is what one worker is dealt of a relation split by key: its rows
// in the relation's Foreach order. It ships as a relation holding them
// would. Its tuples alias the relation's storage, so it is landed before
// anything changes the relation (Cluster.stage) or encoded first (a
// process worker's response).
type piece struct {
	schema mring.Schema
	rowList
}

// clone copies the piece out of the storage it aliases.
func (p *piece) clone() *piece {
	vals := make([]mring.Value, 0, len(p.rowList)*len(p.schema))
	l := make(rowList, len(p.rowList))
	for i, r := range p.rowList {
		vals = append(vals, r.t...)
		l[i] = row{vals[len(vals)-len(r.t) : len(vals) : len(vals)], r.m}
	}
	return &piece{p.schema, l}
}

// split deals src's rows to n workers with the platform's placement
// function on the key at keyPos, in src's Foreach order; a worker dealt
// nothing gets nil. The pieces share one backing array.
func split(src *mring.Relation, keyPos []int, n int) []rows {
	at := make([]int32, 0, src.Len())
	next := make([]int, n+1)
	src.Foreach(func(t mring.Tuple, _ float64) {
		i := dist.PlaceIndex(t, keyPos, n)
		at = append(at, int32(i))
		next[i+1]++
	})
	all := make(rowList, len(at))
	ps := make([]piece, n)
	for i := range ps {
		next[i+1] += next[i]
		ps[i] = piece{schema: src.Schema(), rowList: all[next[i]:next[i+1]]}
	}
	k := 0
	src.Foreach(func(t mring.Tuple, m float64) {
		i := at[k]
		all[next[i]] = row{t, m}
		next[i]++
		k++
	})
	out := make([]rows, n)
	for i := range ps {
		if len(ps[i].rowList) > 0 {
			out[i] = &ps[i]
		}
	}
	return out
}

// wireSize is what moving a fragment costs on the wire: a process
// worker's payload length, or — the simulator's measured traffic — the
// size of the columnar batch an in-process relation or piece would ship
// as, computed from its values. A batch deal is not a shuffle and costs
// nothing.
func wireSize(r rows) int64 {
	var schema mring.Schema
	switch r := r.(type) {
	case *shipped:
		return int64(len(r.raw))
	case *mring.Relation:
		schema = r.Schema()
	case *piece:
		schema = r.schema
	default:
		return 0
	}
	if r.Len() == 0 {
		return 0
	}
	return int64(pool.EncodedSize(schema, r))
}

// node holds the relation fragments of one worker (or the driver), and
// the evaluation context its statements run in.
type node struct {
	rels map[string]*mring.Relation
	// ctx evaluates over rels, created on first use; setRels drops it
	// with the map it shares.
	ctx *eval.Ctx
}

func newNode() node { return node{rels: make(map[string]*mring.Relation)} }

// setRels replaces every fragment at once.
func (n *node) setRels(rels map[string]*mring.Relation) {
	n.rels = rels
	n.ctx = nil
}

func (n *node) rel(name string, schema mring.Schema) *mring.Relation {
	r := n.rels[name]
	if r == nil {
		r = mring.NewRelation(schema)
		n.rels[name] = r
	}
	return r
}

// snapshot encodes every fragment carrying restorable state, including
// empty-but-sized ones, so a restore reproduces the physical layout.
func (n *node) snapshot() map[string]Frag { return SnapshotRels(n.rels) }

// runStmtOn evaluates one of a block's compute statements against one
// node's state through the block's plans, and returns the evaluation
// statistics. It only reads the block and mutates nothing but the node's
// own fragments and context (and the caller-private sink), so concurrent
// calls on distinct nodes are race-free.
func runStmtOn(n *node, b *block, s dist.Stmt, sink *mring.Relation) eval.Stats {
	// Create the fragments the statement reads on first use.
	for _, name := range b.plans[s.RHS].Rels() {
		n.rel(name, b.schemas[name])
	}
	target := n.rel(s.LHS, b.schemas[s.LHS])
	if n.ctx == nil {
		n.ctx = eval.NewCtx(eval.EnvOf(n.rels))
	}
	ctx := n.ctx
	ctx.Plans = b.plans
	ctx.Stats = eval.Stats{}
	if sink != nil {
		ctx.CaptureFolds(target, sink)
	}
	// FoldStmt runs aggregate statements (pre-aggregations and view
	// maintenance) through a per-worker hash-native group table over the
	// node's own fragments; the tables stay worker-local here and meet
	// only in the driver's gather, in worker-index order.
	ctx.FoldStmt(target, s.Op, s.RHS)
	if sink != nil {
		ctx.CaptureFolds(target, nil)
	}
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
	// a restore retires them. In-process shards run the
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

// stage runs one step: it lands the installs in order, runs the block,
// and takes the outputs. A request off the wire passes check first.
func (sh *Shard) stage(req *stageReq) (stageResp, error) {
	var resp stageResp
	for k := range req.installs {
		sh.land(req, k, &resp)
	}
	return resp, sh.finish(req, &resp)
}

// land lands a request's k-th install, recording its replacement in resp
// when it captures.
func (sh *Shard) land(req *stageReq, k int, resp *stageResp) {
	in := req.installs[k]
	cur, old := sh.install(in)
	if !in.capture {
		return
	}
	if resp.replaced == nil {
		resp.replaced = make([][2]rows, len(req.installs))
	}
	resp.replaced[k] = [2]rows{cur, old}
}

// finish runs a step's block over the landed installs, then takes its
// outputs: a gather's fragment as it stands, an exchange's source dealt
// by key.
func (sh *Shard) finish(req *stageReq, resp *stageResp) error {
	if req.block != nil {
		sh.run(req.block, req.watch, resp)
	}
	for _, o := range req.outputs {
		if !o.split {
			// An absent fragment reads as nil, not as a nil relation.
			var r rows
			if f := sh.rels[o.src]; f != nil {
				r = f
			}
			resp.outs = append(resp.outs, []rows{r})
			continue
		}
		src := sh.rel(o.src, o.schema)
		if len(src.Schema()) != len(o.schema) {
			return fmt.Errorf("cluster: split of %q at arity %d, fragment has %d", o.src, len(o.schema), len(src.Schema()))
		}
		resp.outs = append(resp.outs, split(src, o.keyPos, sh.workers))
	}
	return nil
}

// check refuses a request the shard cannot run whole, before anything
// lands, so a refused stage changes no fragment: an install of the wrong
// shape or into a fragment of another arity, a block that would read a
// fragment at another arity or watch a view it has no schema for, a
// split key outside its source's schema, or more exchange pieces than
// maxPieces. The driver builds in-process requests well formed; a worker
// process checks what it decodes.
func (sh *Shard) check(req *stageReq) error {
	for _, in := range req.installs {
		if in.kind != installRepart && len(in.from) != 1 {
			return fmt.Errorf("cluster: install into %q carries %d fragments", in.name, len(in.from))
		}
		if r := sh.rels[in.name]; r != nil && in.kind != installReplace && len(r.Schema()) != len(in.schema) {
			return fmt.Errorf("cluster: install into %q at arity %d, fragment has %d", in.name, len(in.schema), len(r.Schema()))
		}
	}
	if b := req.block; b != nil {
		for name, s := range b.schemas {
			// The arity the fragment has when the block runs.
			n := len(s)
			if r := sh.rels[name]; r != nil {
				n = len(r.Schema())
			}
			for _, in := range req.installs {
				if in.name == name {
					n = len(in.schema)
				}
			}
			if n != len(s) {
				return fmt.Errorf("cluster: block %d reads %q at arity %d, fragment has %d", b.id, name, len(s), n)
			}
		}
		for _, name := range req.watch {
			if _, ok := b.schemas[name]; !ok {
				return fmt.Errorf("cluster: watch of %q without schema", name)
			}
		}
	}
	pieces := 0
	for _, o := range req.outputs {
		for _, p := range o.keyPos {
			if p < 0 || p >= len(o.schema) {
				return fmt.Errorf("cluster: key position %d outside schema %v", p, o.schema)
			}
		}
		if o.split {
			pieces += sh.workers
		}
	}
	if pieces > maxPieces {
		return fmt.Errorf("cluster: stage splits into %d pieces, more than %d", pieces, maxPieces)
	}
	return nil
}

// maxPieces bounds the exchange pieces one stage may return: a split
// costs a slot per worker however small its fragment.
const maxPieces = 1 << 20

// install lands one install; with capture it returns the fragment's
// contents after and before, each its own copy (the block may change the
// fragment before the driver reads them).
func (sh *Shard) install(in install) (cur, old rows) {
	dst := sh.rels[in.name]
	if dst == nil || len(dst.Schema()) != len(in.schema) {
		// Only a replace meets another arity: check refuses the others.
		dst = mring.NewRelation(in.schema)
		sh.rels[in.name] = dst
	}
	if in.capture {
		old = dst.Clone()
	}
	dst.Clear()
	switch {
	case in.kind == installRepart:
		exchange(dst, in.from)
	case in.from[0] != nil:
		in.from[0].Foreach(dst.Add)
	}
	if in.capture {
		cur = dst.Clone()
	}
	return cur, old
}

// exchange adds the pieces a repartition's receiver gets to dst, in
// sender order: into the worker's cleared fragment, or into the driver's
// rebuild of it for a chained transfer, which so holds what the worker's
// fragment holds.
func exchange(dst *mring.Relation, from []rows) {
	for _, f := range from {
		if f != nil {
			f.Foreach(dst.Add)
		}
	}
}

// run executes a prepared block over the shard's fragments, folding the
// changes to each watched view into its sink.
func (sh *Shard) run(b *block, watch []string, resp *stageResp) {
	for _, name := range watch {
		if resp.sinks == nil {
			resp.sinks = make(map[string]rows, len(watch))
		}
		resp.sinks[name] = mring.NewRelation(b.schemas[name])
	}
	start := time.Now()
	for _, s := range b.stmts {
		sink, _ := resp.sinks[s.LHS].(*mring.Relation)
		resp.stats.Add(runStmtOn(&sh.node, b, s, sink))
	}
	resp.compute = time.Since(start)
}

func (sh *Shard) pack(r rows) rows { return r }

func (sh *Shard) snapshot() (map[string]Frag, error) { return sh.node.snapshot(), nil }

// restore validates every fragment before touching any state, so a
// corrupt checkpoint never leaves the shard half-restored.
func (sh *Shard) restore(frags map[string]Frag) error {
	rels, err := restoreFrags(frags)
	if err != nil {
		return err
	}
	sh.setRels(rels)
	sh.blocks = nil
	return nil
}

func (sh *Shard) close() error { return nil }
