// Package tune holds the self-tuning primitives of the runtime: a
// per-worker skew monitor that decides when repartitioning pays, and a
// probe/maintenance index-admission policy. The package is pure
// decision logic — it measures nothing and actuates nothing itself. The
// engine layer feeds it observations (per-worker stage compute,
// per-index health counters) and applies its decisions strictly between
// transactions, so tuning can never change result semantics, only cost.
//
// Both controllers are deterministic functions of their observation
// sequence: tests drive them with fixed durations and synthetic index
// traffic instead of a wall clock.
package tune

import (
	"time"

	"repro/internal/mring"
)

// Config holds every knob of the two controllers. The zero value is
// usable: WithDefaults fills in the calibrated defaults for any field
// left zero, so callers set only what they mean to override.
type Config struct {
	// SkewThreshold is the max/mean per-worker stage-compute imbalance
	// above which repartitioning is considered (1 = perfectly balanced).
	SkewThreshold float64
	// SkewPatience is how many consecutive above-threshold observations
	// are required before acting — transient skew must not trigger a
	// recompile.
	SkewPatience int
	// SkewCooldown is the number of observations after a repartition
	// attempt (successful or not) during which no new attempt starts.
	SkewCooldown int
	// SkewAlpha is the EWMA smoothing factor for the imbalance signal.
	SkewAlpha float64

	// DemoteAfter is the minimum number of index maintenance operations
	// before an index's probe/maintenance ratio is judged at all.
	DemoteAfter int64
	// ColdRatio demotes an index when probes*ColdRatio < maintains
	// (probed ≪ maintained); larger values demote more aggressively.
	ColdRatio int64
	// ReadmitProbes re-admits a demoted index once that many probes hit
	// its scan fallback — the traffic that makes the index pay again.
	ReadmitProbes int64
	// SweepEvery is the number of transactions between index sweeps.
	SweepEvery int
}

// WithDefaults returns c with every zero field set to its default.
func (c Config) WithDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defF := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def64 := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	defF(&c.SkewThreshold, 1.5)
	def(&c.SkewPatience, 3)
	def(&c.SkewCooldown, 16)
	defF(&c.SkewAlpha, 0.4)
	def64(&c.DemoteAfter, 4096)
	def64(&c.ColdRatio, 16)
	def64(&c.ReadmitProbes, 64)
	def(&c.SweepEvery, 32)
	return c
}

// SkewMonitor watches per-worker stage compute and decides when the
// observed imbalance justifies repartitioning. The raw signal is
// max/mean over the workers' per-transaction compute deltas (1 =
// perfectly balanced); it is EWMA-smoothed, must stay above the
// threshold for SkewPatience consecutive observations to trigger, and a
// cooldown after every attempt prevents recompile thrash.
type SkewMonitor struct {
	cfg      Config
	ewma     float64
	seeded   bool
	hot      int
	cooldown int
}

// NewSkewMonitor returns a monitor with the given thresholds.
func NewSkewMonitor(cfg Config) *SkewMonitor {
	return &SkewMonitor{cfg: cfg.WithDefaults()}
}

// Imbalance returns the smoothed max/mean imbalance (0 before any
// observation).
func (m *SkewMonitor) Imbalance() float64 { return m.ewma }

// Observe records one transaction's per-worker compute and reports
// whether a repartition attempt should start now. A true return must be
// acknowledged with NoteRebalance.
func (m *SkewMonitor) Observe(perWorker []time.Duration) bool {
	if len(perWorker) < 2 {
		return false
	}
	var sum, max time.Duration
	for _, d := range perWorker {
		if d < 0 {
			d = 0
		}
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return false
	}
	imb := float64(max) * float64(len(perWorker)) / float64(sum)
	if !m.seeded {
		m.ewma, m.seeded = imb, true
	} else {
		m.ewma = m.cfg.SkewAlpha*imb + (1-m.cfg.SkewAlpha)*m.ewma
	}
	if m.cooldown > 0 {
		m.cooldown--
		return false
	}
	if m.ewma > m.cfg.SkewThreshold {
		m.hot++
	} else {
		m.hot = 0
	}
	return m.hot >= m.cfg.SkewPatience
}

// NoteRebalance acknowledges a repartition attempt: patience resets and
// the cooldown starts whether or not the deployment moved, so an
// attempt that found nothing better does not immediately rescan.
func (m *SkewMonitor) NoteRebalance() {
	m.hot = 0
	m.cooldown = m.cfg.SkewCooldown
}

// IndexPolicy is the stats-driven index-admission policy: it sweeps a
// relation's per-index health counters, demotes cold slice indexes
// (probed ≪ maintained, so incremental maintenance costs more than it
// saves) to on-demand scans, and re-admits a demoted index once probe
// traffic returns. Demotion and readmission reset the counters, so a
// readmitted index gets a fresh trial of DemoteAfter maintenance ops
// before it can be judged cold again — the hysteresis that bounds
// flapping.
type IndexPolicy struct {
	cfg Config
	// Demotions and Readmissions count policy actions across all sweeps.
	Demotions, Readmissions int64
}

// NewIndexPolicy returns a policy with the given thresholds.
func NewIndexPolicy(cfg Config) *IndexPolicy {
	return &IndexPolicy{cfg: cfg.WithDefaults()}
}

// Sweep applies the policy to one relation's secondary indexes and
// returns how many were demoted and readmitted.
func (p *IndexPolicy) Sweep(rel *mring.Relation) (demoted, readmitted int) {
	for _, h := range rel.IndexHealthSnapshot() {
		if h.Demoted {
			if h.ScanProbes >= p.cfg.ReadmitProbes {
				rel.ReadmitIndex(h.Cols)
				readmitted++
			}
			continue
		}
		if h.Maintains >= p.cfg.DemoteAfter && h.Probes*p.cfg.ColdRatio < h.Maintains {
			rel.DemoteIndex(h.Cols)
			demoted++
		}
	}
	p.Demotions += int64(demoted)
	p.Readmissions += int64(readmitted)
	return demoted, readmitted
}
