package ivm

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/mring"
	"repro/internal/tune"
)

// Stats reports an engine's (or registry's) accumulated runtime
// statistics: the embedded evaluation counters (lookups, scans, emits,
// index builds — merged deterministically across nodes on the
// distributed backend), per-worker stage timings, per-index admission
// state, and the self-tuning controllers' state. Snapshots are taken
// under the backend lock, so they are safe to read concurrently with
// Apply.
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
	// Indexes holds the per-index probe/maintenance counters driving
	// index admission, aggregated per (view, columns) across fragments
	// and sorted by view name then column mask. Populated on both
	// backends whether or not AutoTune is enabled.
	Indexes []IndexStat
	// Tuning is the self-tuning controllers' state; Enabled is false
	// (and the rest zero) without the AutoTune option.
	Tuning TuningStats
	// Durability is the WAL/checkpoint subsystem's state; Enabled is
	// false (and the rest zero) without the Durable option.
	Durability DurabilityStats
}

// WorkerTiming is one worker's accumulated stage timing (see
// Stats.Workers).
type WorkerTiming = cluster.WorkerTiming

// IndexStat is the admission state of one secondary index, identified
// by view and bound-column positions. Counters reset on demotion and
// readmission, so they describe the current admission episode.
type IndexStat struct {
	View string
	Cols []int
	// Probes counts probes served by the index; Maintains counts
	// incremental maintenance operations applied to it; ScanProbes
	// counts probes answered by the scan fallback while demoted.
	Probes, Maintains, ScanProbes int64
	// Demoted reports whether the admission policy currently has this
	// index demoted to on-demand scans.
	Demoted bool
}

// TuningStats is the self-tuning controllers' state (see AutoTune).
type TuningStats struct {
	// Enabled reports whether the engine was built with AutoTune.
	Enabled bool
	// Imbalance is the EWMA-smoothed max/mean per-worker compute ratio
	// (0 on the local backend or before the first distributed fold).
	Imbalance float64
	// Repartitions counts skew-triggered placement changes that were
	// actually deployed.
	Repartitions int64
	// Demotions and Readmissions count index admission actions.
	Demotions, Readmissions int64
}

// TuneConfig overrides the self-tuning defaults; the zero value (and
// any zero field) means the calibrated default. See AutoTune.
type TuneConfig struct {
	// SkewThreshold is the max/mean per-worker compute imbalance above
	// which repartitioning is considered (default 1.5); SkewPatience
	// consecutive observations must exceed it (default 3), and
	// SkewCooldown observations follow every attempt (default 16).
	SkewThreshold              float64
	SkewPatience, SkewCooldown int
	// DemoteAfter is the minimum maintenance ops before an index can be
	// judged cold (default 4096); an index is demoted when
	// Probes*ColdRatio < Maintains (default ratio 16) and readmitted
	// after ReadmitProbes scan-fallback probes (default 64). SweepEvery
	// is the number of folds between admission sweeps (default 32).
	DemoteAfter, ColdRatio, ReadmitProbes int64
	SweepEvery                            int
}

func (tc TuneConfig) internal() tune.Config {
	return tune.Config{
		SkewThreshold: tc.SkewThreshold, SkewPatience: tc.SkewPatience, SkewCooldown: tc.SkewCooldown,
		DemoteAfter: tc.DemoteAfter, ColdRatio: tc.ColdRatio, ReadmitProbes: tc.ReadmitProbes,
		SweepEvery: tc.SweepEvery,
	}.WithDefaults()
}

// AutoTune enables the self-tuning runtime, two controllers that act
// after every transaction's fold: (a) on the distributed backend,
// measured per-worker skew feeds back into the partitioning heuristic,
// which recompiles to a better placement between transactions; and (b)
// cold secondary indexes (probed ≪ maintained) demote to on-demand
// scans and readmit when probe traffic returns.
//
// Tuning never changes result semantics, only cost. Every transaction
// folds exactly as submitted — the caller's Tx is the maintenance batch
// — so nothing is buffered and a backend error surfaces on the Apply
// that caused it. Repartitioning and index demotion happen strictly
// between backend transactions. A tuned engine runs no goroutine of
// its own.
func AutoTune(cfg ...TuneConfig) Option {
	return func(c *engineConfig) {
		c.autoTune = true
		if len(cfg) > 0 {
			c.tuneCfg = cfg[0]
		}
	}
}

// tuner is the per-serving self-tuning state: the skew monitor and the
// index-admission policy, both actuated after every fold. All fields are
// guarded by serving.beMu.
type tuner struct {
	cfg  tune.Config
	skew *tune.SkewMonitor
	pol  *tune.IndexPolicy

	lastWorker []time.Duration // previous WorkerTimings snapshot
	sinceSweep int

	repartitions int64
}

func newTuner(cfg *engineConfig) *tuner {
	if !cfg.autoTune {
		return nil
	}
	tc := cfg.tuneCfg.internal()
	return &tuner{
		cfg:  tc,
		skew: tune.NewSkewMonitor(tc),
		pol:  tune.NewIndexPolicy(tc),
	}
}

// afterFoldLocked runs the between-transaction actuation: skew feedback
// into repartitioning, and periodic index-admission sweeps.
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
	tn.sinceSweep++
	if tn.sinceSweep >= tn.cfg.SweepEvery {
		tn.sinceSweep = 0
		s.be.ForEachRelation(func(_ string, r *mring.Relation) {
			tn.pol.Sweep(r)
		})
	}
	return nil
}

func (tn *tuner) snapshot() TuningStats {
	return TuningStats{
		Enabled:      true,
		Imbalance:    tn.skew.Imbalance(),
		Repartitions: tn.repartitions,
		Demotions:    tn.pol.Demotions,
		Readmissions: tn.pol.Readmissions,
	}
}
