package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small returns the workload with its live window cut down, so that the
// whole protocol runs in a test's time.
func small(w workload) workload {
	div := 4
	if w.query == "Q1" {
		div = 20
	}
	live := make([]int, len(w.live))
	for i, n := range w.live {
		live[i] = n / div
	}
	w.live = live
	return w
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0.2, minTx: 20, tracedTx: 20, tmp: t.TempDir(), out: t.TempDir()}
}

// Every workload runs end to end and traced, reports every metric that
// BENCHMARK.json names with its unit, fails no check, and repeats every
// exact count on a second traced run.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, sp.Workloads[i].Name, w.name)
		}
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			e2e, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, e2e, sp.EndToEnd)
			if e2e.Samples < cfg.minTx {
				t.Errorf("window timed %d transactions, want at least %d", e2e.Samples, cfg.minTx)
			}
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want it positive", name, m.Value)
				}
			}

			first, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, first, sp.PerLayer)
			second, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name := range exactMetrics {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("exact metric %s read %v, then %v", name, a, b)
				}
			}
			var trace struct {
				Spans []span `json:"spans"`
			}
			buf, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+w.name+".json"))
			if err == nil {
				err = json.Unmarshal(buf, &trace)
			}
			if err != nil || len(trace.Spans) == 0 {
				t.Errorf("trace file: %d spans, error %v", len(trace.Spans), err)
			}
		})
	}
}

func checkRun(t *testing.T, r *runResult, want []metricSpec) {
	t.Helper()
	if r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
	for _, ms := range want {
		if got, ok := r.Metrics[ms.Name]; !ok {
			t.Errorf("metric %s is not reported", ms.Name)
		} else if got.Unit != ms.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, got.Unit, ms.Unit)
		}
	}
}

func TestCompareJudgesAgainstTheBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tuples, p99lo, p99, p99hi float64) string {
		rep := report{Results: []*runResult{{Workload: "q3_local", Metrics: map[string]metric{
			"tuples_per_cpu_s": {Value: tuples, Unit: "1/s"},
			"apply_cpu_p95_ms": {Value: p99, Unit: "ms", Min: &p99lo, Max: &p99hi},
			"setup_s":          {Value: 0.2, Unit: "s"},
		}}}}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", 30000, 6, 7, 8)
	change := write("change.json", 20000, 3, 7, 11) // a third fewer tuples; p99 spread wider than its bound
	var out strings.Builder
	worse, err := compareFiles(&out, "../BENCHMARK.json", parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("a third less throughput was not judged worse:\n%s", out.String())
	}
	for metric, verdict := range map[string]string{"tuples_per_cpu_s": "worse", "apply_cpu_p95_ms": "unresolved", "setup_s": "ok"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no row judges %s %s:\n%s", metric, verdict, out.String())
		}
	}
}
