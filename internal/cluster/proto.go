package cluster

import (
	"fmt"
	"time"

	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/wire"
)

// The driver/worker protocol: one frame type byte per operation, request
// and response bodies in the internal/wire codec, relation data as
// internal/net payloads inside them (row order is load-bearing: receivers
// replay rows as a mutation sequence). A transaction costs each worker
// one opStage round trip per step of each program it runs
// (Cluster.runBlocks): the request lands the installs queued since the
// last step — the deal, scatter and broadcast fragments, repartition
// pieces — and runs at most one distributed block; the response carries
// the block's stats and sinks, the installs' capture replacements, and
// the outputs the driver statements after the block read — fragments for
// gathers, pieces for exchanges. A warm load and a view read are one
// opStage each too, the one carrying installs only, the other one output
// only; setup opens a session, and snapshot and restore move checkpoints.
// A distributed block crosses the wire once per worker: the first stage
// that names it carries its deploy blob (block.go), every later one only
// its id. remoteWorker encodes each worker-interface call, and serve
// decodes it onto a Shard. Each worker connection carries strictly
// sequential request/response pairs; the driver fans out across workers
// concurrently.
//
// DESIGN.md §11 documents the protocol; change both together.
const (
	// opSetup assigns the worker its index and the worker count. Sent
	// once, first, per driver session.
	opSetup byte = 1
	// opStage runs one step of a program: installs, then at most one
	// distributed block, then outputs (stageReq, stageResp).
	opStage byte = 2
	// opSnapshot returns every non-empty fragment the shard holds, with
	// bucket-table sizes, for a durability checkpoint.
	opSnapshot byte = 4
	// opRestore replaces the shard's entire state with checkpoint
	// fragments, each rebuilt in its snapshot's order (worker re-warm
	// during recovery), and drops its deployed blocks.
	opRestore byte = 5
	// Ops 3 (fetch) and 6 (retain) are retired: a worker refuses them as
	// unknown.

	// opOK carries a response body; opErr carries an error string.
	opOK  byte = 64
	opErr byte = 65
)

// message is one protocol body.
type message interface {
	put(e *encoder)
	get(d *wire.Dec)
}

// encoder writes protocol bodies. Each connection end holds one and
// writes every message it sends into the same buffer, relation payloads
// included: a payload is written in place, after its length prefix, by
// the encoder's pool.Writer. inet.Conn.Send does not retain a body, so
// the next message may overwrite it.
type encoder struct {
	wire.Enc
	w pool.Writer
}

// message encodes a body into the encoder's buffer, valid until the
// next call; nil encodes the empty body.
func (e *encoder) message(m message) []byte {
	e.Reset()
	if m != nil {
		m.put(e)
	}
	return e.B
}

// rows appends the payload a row sequence ships as, with its length
// prefix, in the sequence's own order: a received or packed payload as
// it came, anything else written by the encoder's Writer under
// shipSchema.
func (e *encoder) rows(r rows, schema mring.Schema) {
	switch r := r.(type) {
	case nil:
		e.Bytes(nil)
	case *shipped:
		e.Bytes(r.raw)
	default:
		e.B = inet.AppendPayload(e.B, &e.w, shipSchema(r, schema), r)
	}
}

// shipSchema is the schema a row sequence ships under: a relation's or a
// piece's own, or, for a deal, its install's schema.
func shipSchema(r rows, schema mring.Schema) mring.Schema {
	switch r := r.(type) {
	case *mring.Relation:
		return r.Schema()
	case *piece:
		return r.schema
	}
	return schema
}

// marshal encodes a body into a buffer of its own; nil encodes the empty
// body.
func marshal(m message) []byte {
	var e encoder
	return e.message(m)
}

// unmarshal decodes a body into m (nil: the body must be empty).
func unmarshal(body []byte, m message) error {
	d := wire.NewDec(body)
	if m != nil {
		m.get(&d)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("cluster: bad message: %w", err)
	}
	return nil
}

// maxWorkers bounds the worker count a setup may declare.
const maxWorkers = 1 << 16

type setupReq struct {
	Index   int
	Workers int
}

func (m *setupReq) put(e *encoder)  { e.Int(m.Index); e.Int(m.Workers) }
func (m *setupReq) get(d *wire.Dec) { m.Index = d.Int(); m.Workers = d.Int() }

// A stage request is its installs — each a kind, a target, its schema,
// its payloads and a capture flag — then an optional block (id, deploy
// blob, watch list), then its outputs — each a source, its schema and an
// optional split key.
func (m *stageReq) put(e *encoder) {
	e.Int(len(m.installs))
	for _, in := range m.installs {
		e.Byte(byte(in.kind))
		e.Str(in.name)
		e.Strs(in.schema)
		e.Int(len(in.from))
		for _, f := range in.from {
			e.rows(f, in.schema)
		}
		e.Bool(in.capture)
	}
	e.Bool(m.block != nil)
	if m.block != nil {
		e.Uvarint(m.block.id)
		e.Bytes(m.deploy)
		e.Strs(m.watch)
	}
	e.Int(len(m.outputs))
	for _, o := range m.outputs {
		e.Str(o.src)
		e.Strs(o.schema)
		e.Bool(o.split)
		e.Int(len(o.keyPos))
		for _, p := range o.keyPos {
			e.Int(p)
		}
	}
}

// get decodes a stage request. Each payload must have the arity of the
// fragment it installs into; the block comes back as its id alone, for
// the serving shard to resolve.
func (m *stageReq) get(d *wire.Dec) {
	// An install is at least a kind, a name, a schema, a payload count
	// and a capture flag.
	if n := d.Count(5); n > 0 {
		m.installs = make([]install, n)
	}
	for i := range m.installs {
		in := &m.installs[i]
		if in.kind = installKind(d.Byte()); in.kind > installRepart {
			d.Fail("unknown install kind %d", in.kind)
		}
		in.name = d.Str()
		in.schema = d.Schema()
		if n := d.Count(1); n > 0 {
			in.from = make([]rows, n)
		}
		for j := range in.from {
			r, err := decodeFragment(d.Bytes(), in.schema)
			if err != nil {
				d.Fail("payload for %q: %v", in.name, err)
			}
			in.from[j] = r
		}
		in.capture = d.Bool()
	}
	if d.Bool() {
		m.block = &block{id: d.Uvarint()}
		m.deploy = d.Bytes()
		m.watch = d.Strs()
	}
	// An output is at least a name, a schema, a split flag and a key
	// count.
	if n := d.Count(4); n > 0 {
		m.outputs = make([]output, n)
	}
	for i := range m.outputs {
		o := &m.outputs[i]
		o.src = d.Str()
		o.schema = d.Schema()
		o.split = d.Bool()
		if n := d.Count(1); n > 0 {
			o.keyPos = make([]int, n)
		}
		for j := range o.keyPos {
			o.keyPos[j] = d.Int()
		}
	}
}

// A stage response is the block's stats and compute time, its sinks by
// view name, then the installs' replacements (after, before), then each
// output's pieces. The compute time, in nanoseconds, is a fixed-width
// float64 (exact below 2^53 ns), so a response's length is a function of
// its counted work and never of a clock reading.
func (m *stageResp) put(e *encoder) {
	s := &m.stats
	for _, v := range []int64{s.Lookups, s.Scans, s.Emits, s.IndexOps} {
		e.Varint(v)
	}
	e.Float(float64(m.compute))
	wire.PutMap(&e.Enc, m.sinks, func(_ *wire.Enc, r rows) { e.rows(r, nil) })
	e.Int(len(m.replaced))
	for _, r := range m.replaced {
		e.rows(r[0], nil)
		e.rows(r[1], nil)
	}
	e.Int(len(m.outs))
	for _, pieces := range m.outs {
		e.Int(len(pieces))
		for _, p := range pieces {
			e.rows(p, nil)
		}
	}
}

func (m *stageResp) get(d *wire.Dec) {
	s := &m.stats
	for _, v := range []*int64{&s.Lookups, &s.Scans, &s.Emits, &s.IndexOps} {
		*v = d.Varint()
	}
	m.compute = time.Duration(d.Float())
	m.sinks = wire.GetMap(d, 1, getRows)
	if n := d.Count(2); n > 0 {
		m.replaced = make([][2]rows, n)
	}
	for i := range m.replaced {
		m.replaced[i] = [2]rows{getRows(d), getRows(d)}
	}
	if n := d.Count(1); n > 0 {
		m.outs = make([][]rows, n)
	}
	for i := range m.outs {
		if n := d.Count(1); n > 0 {
			m.outs[i] = make([]rows, n)
		}
		for j := range m.outs[i] {
			m.outs[i][j] = getRows(d)
		}
	}
}

// getRows decodes one relation payload (nil for an empty one).
func getRows(d *wire.Dec) rows {
	r, err := decodeRows(d.Bytes())
	if err != nil {
		d.Fail("%v", err)
	}
	return r
}

// snapshotMsg carries a shard's whole state: the snapshot response, and
// the restore request. Frags holds every non-empty fragment, its
// contents plus its bucket-table size.
type snapshotMsg struct {
	Frags map[string]Frag
}

func (m *snapshotMsg) put(e *encoder)  { putFrags(&e.Enc, m.Frags) }
func (m *snapshotMsg) get(d *wire.Dec) { m.Frags = getFrags(d) }

// putFrags writes one node's fragments in name order (snapshots,
// restores and checkpoints).
func putFrags(e *wire.Enc, frags map[string]Frag) {
	wire.PutMap(e, frags, func(e *wire.Enc, f Frag) {
		e.Strs(f.Schema)
		e.Int(f.Buckets)
		e.Bytes(f.Payload)
	})
}

// getFrags reads what putFrags writes: a fragment is at least a name, a
// schema, a bucket count and a payload length.
func getFrags(d *wire.Dec) map[string]Frag {
	return wire.GetMap(d, 4, func(d *wire.Dec) Frag {
		return Frag{Schema: d.Schema(), Buckets: d.Int(), Payload: d.Bytes()}
	})
}

// call runs one request/response round trip on a worker connection,
// encoding the request with e; a nil resp expects an empty response body.
func call(c inet.Conn, e *encoder, op byte, req, resp message) error {
	if err := c.Send(op, e.message(req)); err != nil {
		return err
	}
	typ, rbody, err := c.Recv()
	if err != nil {
		return err
	}
	switch typ {
	case opOK:
		if err := unmarshal(rbody, resp); err != nil {
			return fmt.Errorf("cluster: decode response to op %d: %w", op, err)
		}
		return nil
	case opErr:
		return fmt.Errorf("cluster: worker error: %s", rbody)
	default:
		return fmt.Errorf("cluster: unexpected response frame type %d", typ)
	}
}
