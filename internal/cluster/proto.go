package cluster

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/wire"
)

// The driver/worker protocol: one frame type byte per operation, request
// and response bodies in the internal/wire codec, relation data as
// internal/net payloads inside them (row order is load-bearing: receivers
// replay rows as a mutation sequence). A distributed block crosses the
// wire once per worker: the first stage that names it carries its deploy
// blob (block.go), every later one only its id. Each op is one method of
// the worker interface, encoded by remoteWorker and decoded onto a Shard
// by serve. Each worker connection carries strictly sequential
// request/response pairs; the driver fans out across workers
// concurrently.
//
// DESIGN.md §11 documents the protocol; change both together.
const (
	// opSetup assigns the worker its index and the worker count. Sent
	// once, first, per driver session.
	opSetup byte = 1
	// opRunBlock executes one distributed block's statements over the
	// shard's fragments, optionally capturing per-view change sinks.
	opRunBlock byte = 2
	// opInstallScatter clears the target fragment and installs a shipped
	// payload (keyed scatter fragment, or a broadcast replica).
	opInstallScatter byte = 3
	// opInstallRepart rebuilds the target fragment from per-sender
	// payloads merged in worker-index order.
	opInstallRepart byte = 4
	// opInstallDelta replaces a relation with a fresh one built from the
	// payload rows in wire order (update-batch fragments, warm loads).
	opInstallDelta byte = 5
	// opPartitionOut splits a shard fragment by key and returns the
	// per-destination payloads.
	opPartitionOut byte = 6
	// opFetch returns a shard fragment's contents (gather, view reads).
	opFetch byte = 7
	// opSnapshot returns every fragment the shard holds, with bucket-table
	// sizes, for a durability checkpoint.
	opSnapshot byte = 8
	// opRestore replaces the shard's entire state with checkpoint
	// fragments, rebuilt layout-exact (worker re-warm during recovery),
	// and drops its deployed blocks.
	opRestore byte = 9
	// opRetain drops every shard fragment not named in the keep set, and
	// every deployed block (the worker half of a repartition).
	opRetain byte = 10

	// opOK carries a response body; opErr carries an error string.
	opOK  byte = 64
	opErr byte = 65
)

// message is one protocol body.
type message interface {
	put(e *wire.Enc)
	get(d *wire.Dec)
}

// marshal encodes a body; nil encodes the empty body.
func marshal(m message) []byte {
	if m == nil {
		return nil
	}
	var e wire.Enc
	m.put(&e)
	return e.B
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

func (m *setupReq) put(e *wire.Enc) { e.Int(m.Index); e.Int(m.Workers) }
func (m *setupReq) get(d *wire.Dec) { m.Index = d.Int(); m.Workers = d.Int() }

type runBlockReq struct {
	// ID names the block; the driver never reuses an id.
	ID uint64
	// Deploy is the block's deploy blob, sent with the first stage the
	// worker runs of it; nil on every later stage.
	Deploy []byte
	// Watch names the watched worker-maintained views this block writes;
	// the shard folds its changes to them into per-view sinks and returns
	// the sinks as payloads.
	Watch []string
}

func (m *runBlockReq) put(e *wire.Enc) { e.Uvarint(m.ID); e.Bytes(m.Deploy); e.Strs(m.Watch) }
func (m *runBlockReq) get(d *wire.Dec) { m.ID = d.Uvarint(); m.Deploy = d.Bytes(); m.Watch = d.Strs() }

type runBlockResp struct {
	Stats     eval.Stats
	ComputeNs int64
	// Sinks holds each watched view's change sink in the shard's fold
	// order (empty sinks are omitted — merging them is a no-op).
	Sinks map[string][]byte
}

func (m *runBlockResp) put(e *wire.Enc) {
	s := &m.Stats
	for _, v := range []int64{s.Lookups, s.Scans, s.Emits, s.IndexOps, s.KernelFolds, m.ComputeNs} {
		e.Varint(v)
	}
	wire.PutMap(e, m.Sinks, (*wire.Enc).Bytes)
}

func (m *runBlockResp) get(d *wire.Dec) {
	s := &m.Stats
	for _, v := range []*int64{&s.Lookups, &s.Scans, &s.Emits, &s.IndexOps, &s.KernelFolds, &m.ComputeNs} {
		*v = d.Varint()
	}
	m.Sinks = wire.GetMap(d, 2, (*wire.Dec).Bytes)
}

type installScatterReq struct {
	Name   string
	Schema mring.Schema
	// Payload is the fragment to install (nil for an empty fragment: the
	// target is still cleared and the replacement still captured).
	Payload []byte
	// Broadcast marks a replica install: no capture (the driver mirror
	// fold already recorded the identical delta).
	Broadcast bool
	// Capture requests the replacement diff: the shard returns the old
	// and new contents so the driver can fold old out of and new into the
	// watched view's batch delta in worker-index order.
	Capture bool
}

func (m *installScatterReq) put(e *wire.Enc) {
	e.Str(m.Name)
	e.Strs(m.Schema)
	e.Bytes(m.Payload)
	e.Bool(m.Broadcast)
	e.Bool(m.Capture)
}

func (m *installScatterReq) get(d *wire.Dec) {
	m.Name = d.Str()
	m.Schema = d.Schema()
	m.Payload = d.Bytes()
	m.Broadcast = d.Bool()
	m.Capture = d.Bool()
}

// installResp carries the capture payloads of a replacement install:
// the fragment contents after (Cur) and before (Old) the install, each
// in its relation's Foreach order. Nil without capture.
type installResp struct {
	Cur []byte
	Old []byte
}

func (m *installResp) put(e *wire.Enc) { e.Bytes(m.Cur); e.Bytes(m.Old) }
func (m *installResp) get(d *wire.Dec) { m.Cur = d.Bytes(); m.Old = d.Bytes() }

type installRepartReq struct {
	Name      string
	SrcSchema mring.Schema
	LHSSchema mring.Schema
	// Payloads holds one payload per sending worker, in worker-index
	// order; nil entries mark senders with no data for this shard.
	Payloads [][]byte
	Capture  bool
}

func (m *installRepartReq) put(e *wire.Enc) {
	e.Str(m.Name)
	e.Strs(m.SrcSchema)
	e.Strs(m.LHSSchema)
	e.Int(len(m.Payloads))
	for _, p := range m.Payloads {
		e.Bytes(p)
	}
	e.Bool(m.Capture)
}

func (m *installRepartReq) get(d *wire.Dec) {
	m.Name = d.Str()
	m.SrcSchema = d.Schema()
	m.LHSSchema = d.Schema()
	if n := d.Count(1); n > 0 {
		m.Payloads = make([][]byte, n)
		for i := range m.Payloads {
			m.Payloads[i] = d.Bytes()
		}
	}
	m.Capture = d.Bool()
}

type installDeltaReq struct {
	Name   string
	Schema mring.Schema
	// Payload's rows rebuild the relation in wire order; nil installs a
	// fresh empty relation.
	Payload []byte
}

func (m *installDeltaReq) put(e *wire.Enc) { e.Str(m.Name); e.Strs(m.Schema); e.Bytes(m.Payload) }
func (m *installDeltaReq) get(d *wire.Dec) {
	m.Name = d.Str()
	m.Schema = d.Schema()
	m.Payload = d.Bytes()
}

type partitionOutReq struct {
	Src    string
	Schema mring.Schema
	KeyPos []int
}

func (m *partitionOutReq) put(e *wire.Enc) {
	e.Str(m.Src)
	e.Strs(m.Schema)
	e.Int(len(m.KeyPos))
	for _, p := range m.KeyPos {
		e.Int(p)
	}
}

func (m *partitionOutReq) get(d *wire.Dec) {
	m.Src = d.Str()
	m.Schema = d.Schema()
	if n := d.Count(1); n > 0 {
		m.KeyPos = make([]int, n)
		for i := range m.KeyPos {
			m.KeyPos[i] = d.Int()
		}
	}
}

// fragsMsg is a list of exchange fragments, one per destination worker
// (partition-out responses); nil entries mark empty fragments.
type fragsMsg struct{ Frags [][]byte }

func (m *fragsMsg) put(e *wire.Enc) {
	e.Int(len(m.Frags))
	for _, f := range m.Frags {
		e.Bytes(f)
	}
}

func (m *fragsMsg) get(d *wire.Dec) {
	if n := d.Count(1); n > 0 {
		m.Frags = make([][]byte, n)
		for i := range m.Frags {
			m.Frags[i] = d.Bytes()
		}
	}
}

type fetchReq struct {
	Name   string
	Schema mring.Schema
}

func (m *fetchReq) put(e *wire.Enc) { e.Str(m.Name); e.Strs(m.Schema) }
func (m *fetchReq) get(d *wire.Dec) { m.Name = d.Str(); m.Schema = d.Schema() }

type fetchResp struct {
	// Present reports whether the shard holds the relation at all (view
	// reads distinguish an absent replica from an empty one).
	Present bool
	Payload []byte
}

func (m *fetchResp) put(e *wire.Enc) { e.Bool(m.Present); e.Bytes(m.Payload) }
func (m *fetchResp) get(d *wire.Dec) { m.Present = d.Bool(); m.Payload = d.Bytes() }

// snapshotMsg carries a shard's whole state: the snapshot response, and
// the restore request. Frags holds every restorable fragment (contents
// plus bucket-table size; empty-but-sized relations included, since
// retained capacity shapes future layout).
type snapshotMsg struct {
	Frags map[string]Frag
}

func (m *snapshotMsg) put(e *wire.Enc) { putFrags(e, m.Frags) }
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

// retainReq names the fragments a shard keeps; every other fragment is
// dropped.
type retainReq struct {
	Keep map[string]bool
}

func (m *retainReq) put(e *wire.Enc) {
	var names []string
	for _, name := range wire.SortedKeys(m.Keep) {
		if m.Keep[name] {
			names = append(names, name)
		}
	}
	e.Strs(names)
}

func (m *retainReq) get(d *wire.Dec) {
	names := d.Strs()
	m.Keep = make(map[string]bool, len(names))
	for i, name := range names {
		if i > 0 && name <= names[i-1] {
			d.Fail("keep name %q out of order", name)
			return
		}
		m.Keep[name] = true
	}
}

// call runs one request/response round trip on a worker connection; a
// nil resp expects an empty response body.
func call(c inet.Conn, op byte, req, resp message) error {
	if err := c.Send(op, marshal(req)); err != nil {
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
