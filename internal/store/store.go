package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Options configures a Store.
type Options struct {
	// SyncEvery is the WAL fsync policy: 1 (default) syncs every append
	// before the transaction is acked; n > 1 is group commit, syncing
	// every n-th append (a crash can lose up to n-1 acked transactions);
	// negative disables append-time syncs entirely. Checkpoint and Close
	// always sync regardless.
	SyncEvery int
	// Retain is how many checkpoint generations to keep (default 2). The
	// newer ones are fallbacks if the newest file is damaged; WAL
	// segments are kept back to the oldest retained checkpoint.
	Retain int
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.Retain == 0 {
		o.Retain = 2
	}
	return o
}

// Recovery describes what Open found in an existing directory. The
// engine restores Checkpoint (if any) and replays Records in order.
type Recovery struct {
	// HasCheckpoint is false on a fresh (or checkpoint-less) directory.
	HasCheckpoint bool
	// Gen is the generation of the restored checkpoint (the store
	// continues appending to segment Gen).
	Gen uint64
	// Seq is the delta-stream sequence number stored in the checkpoint.
	Seq int64
	// Checkpoint is the opaque snapshot body (cluster.EncodeCheckpoint).
	Checkpoint []byte
	// Records is the WAL tail since the checkpoint, in append order.
	Records []Record
	// TornTail reports a dropped incomplete/corrupt final record.
	TornTail bool
	// SkippedCheckpoints counts newer checkpoint files that failed
	// validation and were passed over for an older one.
	SkippedCheckpoints int
	// Segments is how many WAL segments were scanned.
	Segments int
}

// Stats is a snapshot of the store's I/O counters.
type Stats struct {
	Gen                 uint64
	Records             int64
	Bytes               int64
	Syncs               int64
	Checkpoints         int64
	LastCheckpointBytes int64
}

// Store is an open durability directory: one active WAL segment plus the
// retained checkpoints. Not safe for concurrent use; the engine
// serializes access under its backend lock.
type Store struct {
	dir  string
	opt  Options
	gen  uint64
	w    *walWriter
	ckps int64
	last int64
	// Totals carried over from sealed segments' writers.
	recs, bytes, syncs int64
}

// Open opens (creating if needed) a durability directory and returns the
// recovery state found in it: the newest valid checkpoint and the WAL
// records appended since. A torn tail on the active segment is truncated
// so appends continue from the last valid record; corruption anywhere
// else fails Open. The caller must fully apply the recovery before
// appending new records.
func Open(dir string, opt Options) (*Store, *Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec := &Recovery{}
	gen, seq, body, skipped, ok, err := latestCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	rec.SkippedCheckpoints = skipped
	if ok {
		rec.HasCheckpoint = true
		rec.Gen = gen
		rec.Seq = seq
		rec.Checkpoint = body
	}

	segs, err := listGens(dir, "wal-", ".log")
	if err != nil {
		return nil, nil, err
	}
	// Only segments at or after the restored checkpoint's generation
	// matter; older ones are fully covered by the checkpoint (they
	// survive GC only to serve OLDER retained checkpoints).
	live := segs[:0:0]
	for _, g := range segs {
		if g >= gen {
			live = append(live, g)
		}
	}
	cur := gen // segment to append to, created below if absent
	for i, g := range live {
		active := i == len(live)-1
		path := filepath.Join(dir, walName(g))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		res, err := ScanSegment(data, active)
		if err != nil {
			return nil, nil, err
		}
		if res.Gen != g {
			return nil, nil, fmt.Errorf("store: segment %s claims generation %d", walName(g), res.Gen)
		}
		rec.Records = append(rec.Records, res.Records...)
		rec.Segments++
		if res.TornTail {
			rec.TornTail = true
			if err := os.Truncate(path, int64(res.ValidLen)); err != nil {
				return nil, nil, err
			}
		}
		cur = g
	}

	s := &Store{dir: dir, opt: opt, gen: cur}
	exists := false
	for _, g := range live {
		if g == cur {
			exists = true
		}
	}
	path := filepath.Join(dir, walName(cur))
	if exists {
		s.w, err = openSegment(path, opt.SyncEvery)
	} else {
		s.w, err = createSegment(path, cur, opt.SyncEvery)
		if err == nil {
			err = syncDir(dir)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// Append logs one record under the sync policy. When it returns nil
// under SyncEvery == 1 the record is on stable storage.
func (s *Store) Append(r Record) error {
	return s.AppendBody(EncodeRecord(r))
}

// AppendBody is Append for a record body its caller encoded (see
// AppendRecordHead); the log does not retain body. A body over MaxRecord
// fails with a *RecordTooLargeError and logs nothing.
func (s *Store) AppendBody(body []byte) error {
	return s.w.append(body)
}

// Sync forces any unsynced appends to stable storage (a barrier for
// group-commit mode).
func (s *Store) Sync() error { return s.w.sync() }

// Checkpoint durably installs a new snapshot and rolls the log: the
// current segment is synced and sealed, checkpoint-<gen+1>.ckpt lands
// atomically, a fresh wal-<gen+1>.log opens for subsequent appends, and
// generations beyond the retention window are garbage-collected.
func (s *Store) Checkpoint(seq int64, body []byte) error {
	if err := s.w.sync(); err != nil {
		return err
	}
	next := s.gen + 1
	if err := writeCheckpointFile(s.dir, next, seq, body); err != nil {
		return err
	}
	nw, err := createSegment(filepath.Join(s.dir, walName(next)), next, s.opt.SyncEvery)
	if err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		nw.close()
		return err
	}
	old := s.w
	s.recs += old.records
	s.bytes += old.bytes
	s.syncs += old.syncs
	s.w, s.gen = nw, next
	s.ckps++
	s.last = int64(len(body))
	if err := old.close(); err != nil {
		return err
	}
	return gc(s.dir, s.opt.Retain)
}

// Close syncs and closes the active segment. It does NOT write a
// checkpoint; the engine does that first on clean shutdown.
func (s *Store) Close() error { return s.w.close() }

// Gen returns the current checkpoint generation.
func (s *Store) Gen() uint64 { return s.gen }

// Stats returns a snapshot of the store's I/O counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gen:                 s.gen,
		Records:             s.recs + s.w.records,
		Bytes:               s.bytes + s.w.bytes,
		Syncs:               s.syncs + s.w.syncs,
		Checkpoints:         s.ckps,
		LastCheckpointBytes: s.last,
	}
}
