package cluster

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/wire"
)

// Checkpoint is a serialized snapshot of the cluster's materialized state
// (Sec. 4: "Using data checkpointing, we can periodically save
// intermediate state to reliable storage (HDFS) in order to shorten
// recovery time"). The snapshot stores every node's relation fragments
// in the lossless wire payload format (a columnar batch whose mixed-kind
// columns tag each value with its kind); its size approximates the HDFS
// write.
//
// A fragment lists its rows in the relation's Foreach order, which is
// its insertion order, and Restore re-inserts them in that order via
// inet.RestoreIntoExact, so the rebuilt relation visits them in the same
// order. That is what lets a recovered engine keep producing
// bitwise-identical float folds: every later maintenance statement
// enumerates restored state in the order the never-crashed engine would
// have. Each fragment also records the relation's bucket-table size, as
// a capacity hint.
type Checkpoint struct {
	// Workers holds, per worker, the encoded fragments by name.
	Workers []map[string]Frag
	// Driver holds the driver's relations.
	Driver map[string]Frag
	// Parts records the placement the fragments were captured under, so
	// a restore re-deploys against the same partitioning even when the
	// restoring engine would compile another one (it was built with
	// other KeyRanks). Nil on single-node snapshots.
	Parts dist.PartInfo
}

// Frag is one relation's snapshot: its schema (payloads of empty
// relations are nil and carry none), its bucket-table size (0 when the
// relation never allocated one), and its rows in Foreach order.
type Frag struct {
	Schema  mring.Schema
	Buckets int
	Payload []byte
}

// SnapshotRels encodes every relation carrying restorable state: a
// worker's or the driver's fragments, or a local engine's views. Empty
// relations are skipped: no order depends on capacity, so an empty
// relation restores as a fresh one.
func SnapshotRels(rels map[string]*mring.Relation) map[string]Frag {
	out := map[string]Frag{}
	for name, r := range rels {
		if worthSnapshot(r) {
			out[name] = Frag{Schema: r.Schema().Clone(), Buckets: r.TableSize(), Payload: inet.EncodeRelationPlain(r)}
		}
	}
	return out
}

// worthSnapshot reports whether a relation carries restorable state.
func worthSnapshot(r *mring.Relation) bool {
	return r != nil && r.Len() > 0
}

// restoreFrag rebuilds a relation in its snapshot's order.
func restoreFrag(name string, f Frag) (*mring.Relation, error) {
	r, err := inet.RestoreRelationExact(f.Payload, f.Buckets, f.Schema)
	if err != nil {
		return nil, fmt.Errorf("cluster: corrupt checkpoint for %q: %w", name, err)
	}
	return r, nil
}

// restoreFrags rebuilds one node's fragments. Checkpoints may come from
// unreliable storage, so decoding goes through the bounds-guarded payload
// decoder: a corrupt or hostile snapshot returns an error here, it never
// panics mid-restore.
func restoreFrags(frags map[string]Frag) (map[string]*mring.Relation, error) {
	out := make(map[string]*mring.Relation, len(frags))
	for name, f := range frags {
		r, err := restoreFrag(name, f)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}

// Bytes is the total size of the checkpoint's fragment payloads.
func (cp *Checkpoint) Bytes() int64 {
	n := fragBytes(cp.Driver)
	for _, w := range cp.Workers {
		n += fragBytes(w)
	}
	return n
}

// fragBytes is the encoded size of one node's fragments.
func fragBytes(frags map[string]Frag) int64 {
	var n int64
	for _, f := range frags {
		n += int64(len(f.Payload))
	}
	return n
}

// Checkpoint snapshots all materialized state — the driver's fragments
// and every worker's, each in its order — with the placement it was
// captured under.
func (c *Cluster) Checkpoint() (*Checkpoint, error) {
	if c.err != nil {
		return nil, c.err
	}
	cp := &Checkpoint{Driver: c.driver.snapshot(), Workers: make([]map[string]Frag, len(c.workers)), Parts: c.parts.Clone()}
	if err := c.each(func(i int, w worker) (err error) {
		cp.Workers[i], err = w.snapshot()
		return err
	}); err != nil {
		return nil, c.fail(err)
	}
	return cp, nil
}

// Restore replaces all cluster state with the checkpoint's: the driver's
// fragments rebuild locally, and each worker rebuilds its own (the worker
// re-warm step of crash recovery). The worker count must match the
// snapshot (the paper's recovery model restarts the same deployment). A
// corrupt driver snapshot leaves the cluster untouched; a worker failure
// poisons it. A restore may adopt a placement the running programs were
// not compiled against, so it retires them: the driver and every worker
// drop their prepared blocks.
func (c *Cluster) Restore(cp *Checkpoint) error {
	if c.err != nil {
		return c.err
	}
	if len(cp.Workers) != len(c.workers) {
		return fmt.Errorf("cluster: checkpoint has %d workers, cluster has %d", len(cp.Workers), len(c.workers))
	}
	driver, err := restoreFrags(cp.Driver)
	if err != nil {
		return err
	}
	if err := c.each(func(i int, w worker) error { return w.restore(cp.Workers[i]) }); err != nil {
		return c.fail(err)
	}
	c.driver.setRels(driver)
	// Forget the blocks the driver prepared for the retired programs. The
	// workers dropped their deployed blocks in the restore call.
	clear(c.blocks)
	clear(c.plans)
	if cp.Parts != nil {
		c.parts = cp.Parts
	}
	c.committed = make(map[string]*mring.Relation)
	c.shared = make(map[string]bool)
	return nil
}

// KillWorker simulates a worker failure by discarding its state. A
// subsequent Restore recovers the deployment from the last checkpoint.
func (c *Cluster) KillWorker(i int) {
	if i < 0 || i >= len(c.workers) {
		panic("cluster: no such worker")
	}
	_ = c.workers[i].restore(nil)
}

// Checkpoint serialization: a magic and a format version, so drift — or
// a body that is not a checkpoint at all — is detected as a descriptive
// error, never a garbage decode. Version 4 is the wire codec: the worker
// count, each worker's fragments and the driver's in snapshotMsg's
// encoding, then the placement in view order. Version 3 had the same
// layout, but an engine's distributed snapshot also kept its per-batch
// scratch (transient pre-aggregates, Δ batches, movement temporaries),
// whose arity a compiler change moves; it is refused. Version 2 had the
// same layout too, but its workers held keys placed by a hash that
// rounded integers past 2^53 to float64, so a fragment may sit on the
// wrong worker; it is refused, as is version 1 (gob).
const (
	ckptMagic   = "IVCP"
	ckptVersion = 4
)

// EncodeCheckpoint serializes a checkpoint with the versioned header. The
// bytes are a function of the checkpoint alone.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	e := wire.Enc{B: append([]byte(ckptMagic), ckptVersion)}
	e.Int(len(cp.Workers))
	for _, w := range cp.Workers {
		putFrags(&e, w)
	}
	putFrags(&e, cp.Driver)
	wire.PutMap(&e, cp.Parts, func(e *wire.Enc, loc dist.Loc) {
		e.Byte(byte(loc.Kind))
		e.Strs(loc.Key)
	})
	return e.B
}

// DecodeCheckpoint parses a serialized checkpoint, which must carry the
// magic and the current format version.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) <= len(ckptMagic) || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("cluster: not a checkpoint: missing %q header", ckptMagic)
	}
	if v := b[len(ckptMagic)]; v != ckptVersion {
		return nil, fmt.Errorf("cluster: unsupported checkpoint format version %d (have %d)", v, ckptVersion)
	}
	d := wire.NewDec(b[len(ckptMagic)+1:])
	// Every node's fragment map is at least its count byte.
	cp := &Checkpoint{Workers: make([]map[string]Frag, d.Count(1))}
	for i := range cp.Workers {
		cp.Workers[i] = getFrags(&d)
	}
	cp.Driver = getFrags(&d)
	// A placement entry is at least a name, a kind and a key count.
	cp.Parts = wire.GetMap(&d, 3, func(d *wire.Dec) dist.Loc {
		k := dist.LocKind(d.Byte())
		if k > dist.LIndiff {
			d.Fail("unknown location kind %d", k)
		}
		return dist.Loc{Kind: k, Key: d.Schema()}
	})
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: corrupt checkpoint body: %w", err)
	}
	return cp, nil
}
