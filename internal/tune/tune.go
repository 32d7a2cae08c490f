// Package tune holds the self-tuning primitive of the runtime: a
// per-worker skew monitor that decides when repartitioning pays. The
// package is pure decision logic — it measures nothing and actuates
// nothing itself. The engine layer feeds it per-worker stage compute and
// applies its decisions strictly between transactions, so tuning can
// never change result semantics, only cost.
//
// The monitor is a deterministic function of its observation sequence:
// tests drive it with fixed durations instead of a wall clock.
package tune

import "time"

// Config holds every knob of the skew controller. The zero value is
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
	defF(&c.SkewThreshold, 1.5)
	def(&c.SkewPatience, 3)
	def(&c.SkewCooldown, 16)
	defF(&c.SkewAlpha, 0.4)
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
