package cluster

import (
	"fmt"
	"io"

	"repro/internal/mring"
	inet "repro/internal/net"
)

// ServeConn runs one driver session over a framed connection: a fresh
// shard per connection (driver sessions own their worker state), request
// frames dispatched sequentially until the peer closes. Handler panics
// are converted to opErr responses — a hostile or buggy driver must not
// take the worker process down.
func ServeConn(conn inet.Conn) error {
	defer conn.Close()
	sh := &Shard{node: newNode()}
	var enc encoder // writes every response of the session
	for {
		op, body, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		resp, herr := handleSafely(sh, op, body)
		if herr != nil {
			err = conn.Send(opErr, []byte(herr.Error()))
		} else {
			err = conn.Send(opOK, enc.message(resp))
		}
		if err != nil {
			return err
		}
	}
}

func handleSafely(sh *Shard, op byte, body []byte) (resp message, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("cluster: op %d panicked: %v", op, r)
		}
	}()
	return serve(sh, op, body)
}

// serve decodes one request, runs it on the shard, and returns the
// response body (nil: empty) — the worker-process side of every
// remoteWorker call. Malformed or hostile requests return errors: bodies
// go through the bounds-checked internal/wire codec, payloads through the
// hardened internal/net decoders, deploy blobs through newBlock's check. A
// stage is refused before its first install lands when its deploy blob
// fails the check, its block id is not deployed, or a payload's arity
// differs from its target's.
func serve(sh *Shard, op byte, body []byte) (message, error) {
	if op != opSetup && sh.workers < 1 {
		return nil, fmt.Errorf("cluster: shard not set up")
	}
	switch op {
	case opSetup:
		var req setupReq
		if err := unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Workers < 1 || req.Workers > maxWorkers || req.Index >= req.Workers {
			return nil, fmt.Errorf("cluster: bad setup index %d of %d workers", req.Index, req.Workers)
		}
		sh.workers = req.Workers
		return nil, nil
	case opStage:
		var req stageReq
		if err := unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.block != nil {
			b, err := sh.stageBlock(req.block.id, req.deploy)
			if err != nil {
				return nil, err
			}
			req.block = b
		}
		if err := sh.check(&req); err != nil {
			return nil, err
		}
		resp, err := sh.stage(&req)
		if err != nil {
			return nil, err
		}
		return &resp, nil
	case opSnapshot:
		if err := unmarshal(body, nil); err != nil {
			return nil, err
		}
		frags, err := sh.snapshot()
		return &snapshotMsg{Frags: frags}, err
	case opRestore:
		var req snapshotMsg
		if err := unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, sh.restore(req.Frags)
	default:
		return nil, fmt.Errorf("cluster: unknown op %d", op)
	}
}

// decodeFragment decodes a shipped fragment, which must have the arity
// of the relation it installs into.
func decodeFragment(b []byte, schema mring.Schema) (rows, error) {
	r, err := decodeRows(b)
	if err != nil || r == nil {
		return nil, err
	}
	if n := len(r.(*shipped).Schema); n != len(schema) {
		return nil, fmt.Errorf("payload arity %d, relation arity %d", n, len(schema))
	}
	return r, nil
}

// WorkerServer accepts driver connections on a listener and serves each
// on its own goroutine. Close stops accepting and severs every active
// connection — the kill-a-worker tests use it to drop a worker
// mid-transaction.
type WorkerServer struct{ *inet.Server }

// ListenAndServeWorker starts a worker server on addr (port 0 picks a
// free port; read it back with Addr).
func ListenAndServeWorker(tr inet.Transport, addr string) (*WorkerServer, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &WorkerServer{inet.Serve(l, func(c inet.Conn) { ServeConn(c) })}, nil
}
