package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readReport(path string) (map[string]*runResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*runResult, len(rep.Results))
	for _, r := range rep.Results {
		out[r.Workload] = r
	}
	return out, nil
}

// spread is the width of a metric's repetitions as a share of their median.
func (m metric) spread() float64 {
	if m.Min == nil || m.Value == 0 {
		return 0
	}
	return (*m.Max - *m.Min) / math.Abs(m.Value)
}

// compareFiles prints one row per metric and workload present in both
// reports: the parent's value, the change's, and their ratio. An
// end-to-end metric is judged against its bound in BENCHMARK.json: worse
// when the change is worse than the parent by more than the bound,
// unresolved when the repetitions of either side spread wider than the
// bound, ok otherwise. A per-layer metric has no bound; a count that
// repeats exactly is marked same or differs. It reports whether any row
// is worse.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (worse bool, err error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := readReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-18s %-34s %14s %14s %8s  %s\n", "workload", "metric", "parent", "change", "ratio", "verdict")
	for _, wl := range sp.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if p == nil || c == nil {
			continue
		}
		for _, ms := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			pm, ok1 := p.Metrics[ms.Name]
			cm, ok2 := c.Metrics[ms.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict := ""
			switch {
			case ms.Bound > 0:
				worseBy := (cm.Value - pm.Value) / math.Abs(pm.Value)
				if ms.Better == "higher" {
					worseBy = -worseBy
				}
				switch {
				case math.Max(pm.spread(), cm.spread()) > ms.Bound:
					verdict = "unresolved"
				case worseBy > ms.Bound:
					verdict = "worse"
					worse = true
				default:
					verdict = "ok"
				}
			case exactMetrics[ms.Name] && pm.Value == cm.Value:
				verdict = "same"
			case exactMetrics[ms.Name]:
				verdict = "differs"
			}
			fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g %8.4f  %s\n", wl.Name, ms.Name, pm.Value, cm.Value, cm.Value/pm.Value, verdict)
		}
	}
	return worse, nil
}
