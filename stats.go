package ivm

import (
	"repro/internal/cluster"
	"repro/internal/eval"
)

// Stats reports an engine's (or registry's) accumulated runtime
// statistics: the embedded evaluation counters (lookups, scans, emits,
// index builds — merged deterministically across nodes on the
// distributed backend), per-worker stage timings, and the durability
// subsystem's state. Snapshots are taken under the backend lock, so
// they are safe to read concurrently with Apply.
type Stats struct {
	eval.Stats
	// Workers holds each worker's accumulated distributed-stage compute
	// in worker-index order (nil on the local backend). Compute is the
	// per-worker sum of virtual stage compute — the term whose per-stage
	// maximum is Metrics.ComputeMax — and Stages counts the distributed
	// stages the worker ran. A max/mean ratio over Compute far above 1
	// is partition skew.
	Workers []WorkerTiming
	// Durability is the WAL/checkpoint subsystem's state; Enabled is
	// false (and the rest zero) without the Durable option.
	Durability DurabilityStats
}

// WorkerTiming is one worker's accumulated stage timing (see
// Stats.Workers).
type WorkerTiming = cluster.WorkerTiming
