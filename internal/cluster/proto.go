package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
)

// The driver/worker protocol: one frame type byte per operation, gob
// request/response bodies, relation data as internal/net payloads (never
// gob — row order is load-bearing: receivers replay rows as a mutation
// sequence). Each op is one method of the worker interface, encoded by
// remoteWorker and decoded onto a Shard by serve. Each worker connection
// carries strictly sequential request/response pairs; the driver fans
// out across workers concurrently.
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
	// fragments, rebuilt layout-exact (worker re-warm during recovery).
	opRestore byte = 9
	// opRetain drops every shard fragment not named in the keep set (the
	// worker half of a repartition).
	opRetain byte = 10

	// opOK carries a gob response body; opErr carries an error string.
	opOK  byte = 64
	opErr byte = 65
)

type setupReq struct {
	Index   int
	Workers int
}

type setupResp struct{}

type runBlockReq struct {
	// Stmts is the block's statement sequence; the shard executes it in
	// order against its own fragments.
	Stmts []dist.Stmt
	// Schemas is the driver's schema map after prepareStmts — every
	// schema the statements may bind, resolved on the driver so shards
	// never register schemas themselves.
	Schemas map[string]mring.Schema
	// Watch names the watched worker-maintained views this block writes;
	// the shard folds its changes to them into per-view sinks and returns
	// the sinks as payloads.
	Watch []string
}

type runBlockResp struct {
	Stats     eval.Stats
	ComputeNs int64
	// Sinks holds each watched view's change sink in the shard's fold
	// order (empty sinks are omitted — merging them is a no-op).
	Sinks map[string][]byte
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

// installResp carries the capture payloads of a replacement install:
// the fragment contents after (Cur) and before (Old) the install, each
// in its relation's Foreach order. Nil without capture.
type installResp struct {
	Cur []byte
	Old []byte
}

type installRepartReq struct {
	Name      string
	SrcSchema mring.Schema
	LHSSchema mring.Schema
	// Payloads holds one payload per sending worker, in worker-index
	// order; nil entries mark senders with no data for this shard.
	Payloads [][]byte
	Capture  bool
}

type installDeltaReq struct {
	Name   string
	Schema mring.Schema
	// Payload's rows rebuild the relation in wire order; nil installs a
	// fresh empty relation.
	Payload []byte
}

type installDeltaResp struct{}

type partitionOutReq struct {
	Src    string
	Schema mring.Schema
	KeyPos []int
}

type partitionOutResp struct {
	// Frags holds one payload per destination worker; nil entries mark
	// empty fragments.
	Frags [][]byte
}

type fetchReq struct {
	Name   string
	Schema mring.Schema
}

type fetchResp struct {
	// Present reports whether the shard holds the relation at all (view
	// reads distinguish an absent replica from an empty one).
	Present bool
	Payload []byte
}

type snapshotReq struct{}

type snapshotResp struct {
	// Frags holds every restorable fragment on the shard (contents plus
	// bucket-table size; empty-but-sized relations included, since
	// retained capacity shapes future layout).
	Frags map[string]Frag
}

type restoreReq struct {
	Frags map[string]Frag
}

type restoreResp struct{}

type retainReq struct {
	Keep map[string]bool
}

type retainResp struct{}

func init() {
	// The statement AST crosses the wire inside runBlockReq; register
	// every concrete node behind the expr.Expr / expr.VExpr interfaces.
	gob.Register(&expr.Rel{})
	gob.Register(&expr.Plus{})
	gob.Register(&expr.Mul{})
	gob.Register(&expr.Agg{})
	gob.Register(&expr.Const{})
	gob.Register(&expr.Val{})
	gob.Register(&expr.Cmp{})
	gob.Register(&expr.Assign{})
	gob.Register(&expr.Exists{})
	gob.Register(&dist.Xform{})
	gob.Register(expr.VarRef{})
	gob.Register(expr.Lit{})
	gob.Register(expr.Arith{})
}

// encodeMsg gob-encodes one protocol message body. Each message is a
// self-contained gob stream, so decoding needs no per-connection state.
func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeMsg(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// call runs one request/response round trip on a worker connection.
func call(c inet.Conn, op byte, req, resp any) error {
	body, err := encodeMsg(req)
	if err != nil {
		return fmt.Errorf("cluster: encode op %d: %w", op, err)
	}
	if err := c.Send(op, body); err != nil {
		return err
	}
	typ, rbody, err := c.Recv()
	if err != nil {
		return err
	}
	switch typ {
	case opOK:
		if resp == nil {
			return nil
		}
		if err := decodeMsg(rbody, resp); err != nil {
			return fmt.Errorf("cluster: decode response to op %d: %w", op, err)
		}
		return nil
	case opErr:
		return fmt.Errorf("cluster: worker error: %s", rbody)
	default:
		return fmt.Errorf("cluster: unexpected response frame type %d", typ)
	}
}
