package ivm

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/tune"
)

// Stats reports an engine's (or registry's) accumulated runtime
// statistics: the embedded evaluation counters (lookups, scans, emits,
// index builds — merged deterministically across nodes on the
// distributed backend), per-worker stage timings, and the self-tuning
// controller's state. Snapshots are taken under the backend lock, so
// they are safe to read concurrently with Apply.
type Stats struct {
	eval.Stats
	// Workers holds each worker's accumulated distributed-stage compute
	// in worker-index order (nil on the local backend). Compute is the
	// per-worker sum of virtual stage compute — the term whose per-stage
	// maximum is Metrics.ComputeMax — and Stages counts the distributed
	// stages the worker ran. A max/mean ratio over Compute far above 1
	// is partition skew; this is the signal AutoTune's repartitioning
	// feedback consumes, exported so users can see it too.
	Workers []WorkerTiming
	// Tuning is the self-tuning controller's state; Enabled is false
	// (and the rest zero) without the AutoTune option.
	Tuning TuningStats
	// Durability is the WAL/checkpoint subsystem's state; Enabled is
	// false (and the rest zero) without the Durable option.
	Durability DurabilityStats
}

// WorkerTiming is one worker's accumulated stage timing (see
// Stats.Workers).
type WorkerTiming = cluster.WorkerTiming

// TuningStats is the self-tuning controller's state (see AutoTune).
type TuningStats struct {
	// Enabled reports whether the engine was built with AutoTune.
	Enabled bool
	// Imbalance is the EWMA-smoothed max/mean per-worker compute ratio
	// (0 on the local backend or before the first distributed fold).
	Imbalance float64
	// Repartitions counts skew-triggered placement changes that were
	// actually deployed.
	Repartitions int64
}

// TuneConfig overrides the self-tuning defaults; the zero value (and
// any zero field) means the calibrated default. Negative fields, and a
// SkewThreshold that is not finite, make New and NewRegistry fail. See
// AutoTune.
type TuneConfig struct {
	// SkewThreshold is the max/mean per-worker compute imbalance above
	// which repartitioning is considered (default 1.5); SkewPatience
	// consecutive observations must exceed it (default 3), and
	// SkewCooldown observations follow every attempt (default 16).
	SkewThreshold              float64
	SkewPatience, SkewCooldown int
}

func (tc TuneConfig) internal() tune.Config {
	return tune.Config{
		SkewThreshold: tc.SkewThreshold, SkewPatience: tc.SkewPatience, SkewCooldown: tc.SkewCooldown,
	}
}

// AutoTune enables the self-tuning runtime, one controller that acts
// after every transaction's fold: on the distributed backend, measured
// per-worker skew feeds back into the partitioning heuristic, which
// recompiles to a better placement between transactions. On the local
// backend it observes nothing and never acts.
//
// Tuning never changes result semantics, only cost. Every transaction
// folds exactly as submitted — the caller's Tx is the maintenance batch
// — so nothing is buffered and a backend error surfaces on the Apply
// that caused it. Repartitioning happens strictly between backend
// transactions. A tuned engine runs no goroutine of its own.
func AutoTune(cfg ...TuneConfig) Option {
	return func(c *engineConfig) {
		c.autoTune = true
		if len(cfg) > 0 {
			c.tuneCfg = cfg[0]
		}
	}
}

// tuner is the per-serving self-tuning state: the skew monitor,
// actuated after every fold. All fields are guarded by serving.beMu.
type tuner struct {
	skew *tune.SkewMonitor

	lastWorker []time.Duration // previous WorkerTimings snapshot

	repartitions int64
}

func newTuner(cfg *engineConfig) *tuner {
	if !cfg.autoTune {
		return nil
	}
	return &tuner{skew: tune.NewSkewMonitor(cfg.tuneCfg.internal())}
}

// afterFoldLocked runs the between-transaction actuation: skew feedback
// into repartitioning.
func (tn *tuner) afterFoldLocked(s *serving) error {
	if wt := s.be.WorkerTimings(); len(wt) >= 2 {
		cur := make([]time.Duration, len(wt))
		for i, w := range wt {
			cur[i] = w.Compute
		}
		delta := make([]time.Duration, len(cur))
		for i := range cur {
			delta[i] = cur[i]
			if tn.lastWorker != nil && i < len(tn.lastWorker) {
				delta[i] -= tn.lastWorker[i]
			}
		}
		tn.lastWorker = cur
		if tn.skew.Observe(delta) {
			changed, err := s.be.Rebalance()
			tn.skew.NoteRebalance()
			if err != nil {
				return err
			}
			if changed {
				tn.repartitions++
			}
		}
	}
	return nil
}

func (tn *tuner) snapshot() TuningStats {
	return TuningStats{
		Enabled:      true,
		Imbalance:    tn.skew.Imbalance(),
		Repartitions: tn.repartitions,
	}
}
