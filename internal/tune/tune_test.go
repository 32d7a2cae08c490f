package tune_test

import (
	"testing"
	"time"

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

func TestConfigWithDefaults(t *testing.T) {
	c := tune.Config{}.WithDefaults()
	if c.SkewThreshold <= 1 || c.SkewPatience <= 0 || c.SkewCooldown <= 0 || c.SkewAlpha <= 0 || c.SkewAlpha > 1 {
		t.Fatalf("default skew knobs inconsistent: %+v", c)
	}
	// Overrides survive.
	c2 := tune.Config{SkewPatience: 5, SkewCooldown: 7}.WithDefaults()
	if c2.SkewPatience != 5 || c2.SkewCooldown != 7 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}
