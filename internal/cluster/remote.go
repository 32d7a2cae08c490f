package cluster

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
)

// Connect dials the worker processes at addrs over tr, assigns each its
// index, and returns the driver over them. As with New, the schemas map
// names the views the cluster reads and warm-loads; each program carries
// the schemas its blocks bind, and the cluster writes to neither. The
// cost model runs with no platform terms and measured compute: Metrics
// report each worker's own measured stage time and the driver's wall
// time, and real payload sizes.
func Connect(tr inet.Transport, addrs []string, schemas map[string]mring.Schema, parts dist.PartInfo) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	ws := make([]worker, 0, len(addrs))
	for _, a := range addrs {
		conn, err := tr.Dial(a)
		if err != nil {
			for _, w := range ws {
				w.close()
			}
			return nil, fmt.Errorf("cluster: dial worker %s: %w", a, err)
		}
		ws = append(ws, &remoteWorker{conn: conn, deployed: make(map[uint64]bool)})
	}
	c := newCluster(Config{Workers: len(ws)}, ws, schemas, parts)
	c.rpc = true
	if err := c.each(func(i int, w worker) error {
		return w.(*remoteWorker).call(opSetup, &setupReq{Index: i, Workers: len(ws)}, nil)
	}); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: worker setup: %w", err)
	}
	return c, nil
}

// remoteWorker is a worker process behind a framed connection: every call
// is one request/response round trip of the protocol in proto.go.
type remoteWorker struct {
	conn inet.Conn
	// enc encodes every request sent on conn, and pack's payloads.
	enc encoder
	// deployed holds the ids of the blocks the worker holds: the first
	// stage of a block ships its deploy blob, every later one its id.
	// Retain and restore retire the worker's blocks, and clear it.
	deployed map[uint64]bool
}

// call runs one round trip on the worker's connection.
func (rw *remoteWorker) call(op byte, req, resp message) error {
	return call(rw.conn, &rw.enc, op, req, resp)
}

// shipped is a relation payload as it crossed (or will cross) the wire:
// the bytes, and the batch read in place from them when the driver
// received them. A payload the driver packed itself is never read on
// this side.
type shipped struct {
	*pool.ColBatch
	raw []byte
}

// decodeRows decodes one received payload; nil for an empty one.
func decodeRows(b []byte) (rows, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p, err := inet.DecodePayload(b)
	if err != nil {
		return nil, err
	}
	return &shipped{ColBatch: p, raw: b}, nil
}

// stage sends one step; the block's deploy blob rides along the first
// time this worker runs the block.
func (rw *remoteWorker) stage(req *stageReq) (stageResp, error) {
	req.deploy = nil
	if req.block != nil && !rw.deployed[req.block.id] {
		req.deploy = req.block.deploy
	}
	var resp stageResp
	if err := rw.call(opStage, req, &resp); err != nil {
		return stageResp{}, err
	}
	if req.block != nil {
		rw.deployed[req.block.id] = true
	}
	return resp, nil
}

// pack encodes a relation or piece once, into a payload of its own: a
// broadcast installs the one pack on every worker.
func (rw *remoteWorker) pack(r rows) rows {
	if s, ok := r.(*shipped); ok {
		return s
	}
	return &shipped{raw: inet.EncodeRows(&rw.enc.w, shipSchema(r, nil), r)}
}

func (rw *remoteWorker) snapshot() (map[string]Frag, error) {
	var resp snapshotMsg
	err := rw.call(opSnapshot, nil, &resp)
	return resp.Frags, err
}

func (rw *remoteWorker) restore(frags map[string]Frag) error {
	clear(rw.deployed)
	return rw.call(opRestore, &snapshotMsg{Frags: frags}, nil)
}

func (rw *remoteWorker) close() error { return rw.conn.Close() }
