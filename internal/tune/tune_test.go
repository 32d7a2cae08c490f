package tune_test

import (
	"testing"
	"time"

	"repro/internal/mring"
	"repro/internal/tune"
)

func TestSkewMonitorPatienceAndCooldown(t *testing.T) {
	cfg := tune.Config{SkewThreshold: 1.5, SkewPatience: 3, SkewCooldown: 4, SkewAlpha: 1}
	m := tune.NewSkewMonitor(cfg)

	skewed := []time.Duration{9 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	balanced := []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}

	// Patience: the first patience-1 skewed observations must not trigger.
	for i := 0; i < 2; i++ {
		if m.Observe(skewed) {
			t.Fatalf("observation %d triggered before patience ran out", i)
		}
	}
	if !m.Observe(skewed) {
		t.Fatalf("third consecutive skewed observation should trigger")
	}
	if imb := m.Imbalance(); imb < 2.9 || imb > 3.1 {
		t.Fatalf("imbalance = %.2f, want ~3 (max/mean of 9,1,1,1)", imb)
	}

	// Cooldown: after acknowledging, even sustained skew must stay quiet
	// for SkewCooldown observations, then patience starts over.
	m.NoteRebalance()
	for i := 0; i < 4+2; i++ { // 4 cooldown + 2 patience
		if m.Observe(skewed) {
			t.Fatalf("observation %d during cooldown/patience triggered", i)
		}
	}
	if !m.Observe(skewed) {
		t.Fatalf("after cooldown and patience, sustained skew should trigger again")
	}

	// Balanced input resets patience.
	m.NoteRebalance()
	m2 := tune.NewSkewMonitor(cfg)
	for i := 0; i < 10; i++ {
		if m2.Observe(balanced) {
			t.Fatalf("balanced workers triggered a rebalance")
		}
	}
	if m2.Observe(skewed) || m2.Observe(skewed) {
		t.Fatalf("patience must restart from zero after balanced stretches")
	}
}

func TestSkewMonitorDegenerateInputs(t *testing.T) {
	m := tune.NewSkewMonitor(tune.Config{SkewPatience: 1})
	if m.Observe(nil) || m.Observe([]time.Duration{time.Second}) {
		t.Fatalf("fewer than two workers can never be skewed")
	}
	if m.Observe([]time.Duration{0, 0, 0}) {
		t.Fatalf("all-zero compute must not trigger")
	}
}

func TestIndexPolicyDemoteAndReadmit(t *testing.T) {
	cfg := tune.Config{DemoteAfter: 10, ColdRatio: 4, ReadmitProbes: 3}
	p := tune.NewIndexPolicy(cfg)

	rel := mring.NewRelation(mring.Schema{"k", "v"})
	pos := []int{0}
	if _, _, ok := rel.SliceIndex(pos); !ok {
		t.Fatalf("fresh index must be admitted")
	}
	// Pure maintenance, no probes: insert enough distinct tuples to cross
	// DemoteAfter.
	for i := 0; i < 20; i++ {
		rel.Add(mring.Tuple{mring.Int(int64(i)), mring.Float(1)}, 1)
	}
	demoted, readmitted := p.Sweep(rel)
	if demoted != 1 || readmitted != 0 {
		t.Fatalf("Sweep = (%d,%d), want (1,0): 20 maintains, 0 probes", demoted, readmitted)
	}
	if rel.Indexes() != 0 {
		t.Fatalf("demoted index still registered")
	}
	// While demoted the slice path falls back to scans, and the counters
	// were reset: heavy maintenance alone must not re-trigger anything.
	if _, _, ok := rel.SliceIndex(pos); ok {
		t.Fatalf("demoted index served a probe")
	}
	if d, r := p.Sweep(rel); d != 0 || r != 0 {
		t.Fatalf("sweep after demotion acted (%d,%d); counters should have reset", d, r)
	}

	// Probe traffic returns: ReadmitProbes scan-probes re-admit it.
	rel.SliceIndex(pos)
	rel.SliceIndex(pos) // with the first probe above: 3 scan-probes total
	if d, r := p.Sweep(rel); d != 0 || r != 1 {
		t.Fatalf("Sweep = (%d,%d), want readmission after %d scan probes", d, r, 3)
	}
	idx, built, ok := rel.SliceIndex(pos)
	if !ok || !built || idx == nil {
		t.Fatalf("readmitted index should rebuild on next probe (ok=%v built=%v)", ok, built)
	}
	// Fresh trial after readmission: the rebuild does not count as
	// maintenance, so an immediate sweep keeps the index.
	if d, _ := p.Sweep(rel); d != 0 {
		t.Fatalf("index demoted immediately after readmission; rebuild must not count as maintenance")
	}

	// The probe counter keeps a hot index admitted even under heavy
	// maintenance.
	for i := 100; i < 200; i++ {
		rel.Add(mring.Tuple{mring.Int(int64(i)), mring.Float(1)}, 1)
		idx2, _, _ := rel.SliceIndex(pos)
		idx2.Probe(mring.Tuple{mring.Int(int64(i))}, func(mring.Tuple, float64) {})
	}
	if d, _ := p.Sweep(rel); d != 0 {
		t.Fatalf("hot index (1 probe per maintain) was demoted")
	}
	if p.Demotions != 1 || p.Readmissions != 1 {
		t.Fatalf("policy counters = (%d,%d), want (1,1)", p.Demotions, p.Readmissions)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := tune.Config{}.WithDefaults()
	if c.SkewThreshold <= 1 || c.SkewPatience <= 0 || c.SkewCooldown <= 0 || c.SkewAlpha <= 0 || c.SkewAlpha > 1 {
		t.Fatalf("default skew knobs inconsistent: %+v", c)
	}
	if c.DemoteAfter <= 0 || c.ColdRatio <= 0 || c.ReadmitProbes <= 0 || c.SweepEvery <= 0 {
		t.Fatalf("default admission knobs inconsistent: %+v", c)
	}
	// Overrides survive.
	c2 := tune.Config{SkewPatience: 5, SweepEvery: 7}.WithDefaults()
	if c2.SkewPatience != 5 || c2.SweepEvery != 7 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}
