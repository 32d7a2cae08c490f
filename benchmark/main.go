// Command benchmark measures the engine end to end, through the public
// ivm.Engine on every backend, and layer by layer in a separate traced
// pass. BENCHMARK.json at the root of the repository names its metrics,
// bounds and workloads; README.md beside this file explains them.
//
//	go run ./benchmark -workload q3_local -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -seed 1 -reps 3 -out benchmark/out/run.json
//	go run ./benchmark -trace 1 -out benchmark/out/layers.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// outDir receives trace files and the scratch directories of durable
// engines; everything the benchmark writes stays under it.
const outDir = "benchmark/out"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 12, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass, 0 the end-to-end run")
		reps    = flag.Int("reps", 1, "fresh-engine repetitions per workload; a metric is their median")
		minTx   = flag.Int("min-tx", 1540, "least transactions in the windows together")
		out     = flag.String("out", "", "file that receives every result as JSON")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: parent, change")
		profile = flag.String("profile", "", "directory that receives one CPU and one heap profile per workload")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two files: parent.json change.json"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fail(err)
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fail(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, minTx: *minTx, tracedTx: tracedTx, tmp: tmp, out: outDir}
	results, err := runAll(run, cfg, *trace == 1, *reps, *profile)
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}

	rep := report{Seed: *seed, Seconds: *seconds, Reps: *reps, Traced: *trace == 1,
		Commit: os.Getenv("BENCH_COMMIT"), Go: runtime.Version(), NumCPU: runtime.NumCPU(), Results: results}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	failed := 0
	for _, r := range results {
		printResult(r)
		failed += r.Failed
	}
	// The last line is the whole result of a single-workload run, in the
	// shape the benchmark's driver reads (with -reps 1, value and unit only).
	if len(results) == 1 {
		r := results[0]
		last := map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
		buf, err := json.Marshal(last)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(buf))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report is the content of an -out file.
type report struct {
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Reps    int          `json:"reps"`
	Traced  bool         `json:"traced"`
	Commit  string       `json:"commit"`
	Go      string       `json:"go"`
	NumCPU  int          `json:"nproc"`
	Results []*runResult `json:"results"`
}

// runAll runs reps repetitions of every workload, interleaved round-robin
// so that drift of the host falls on all of them alike, and folds each
// workload's repetitions into one result of medians.
func runAll(run []workload, cfg runConfig, traced bool, reps int, profileDir string) ([]*runResult, error) {
	byWorkload := make([][]*runResult, len(run))
	for rep := 0; rep < reps; rep++ {
		for i, w := range run {
			stop, err := startProfile(profileDir, w.name, rep)
			if err != nil {
				return nil, err
			}
			var r *runResult
			if traced {
				r, err = runTraced(w, cfg)
			} else {
				r, err = runEndToEnd(w, cfg)
			}
			if perr := stop(); err == nil {
				err = perr
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			byWorkload[i] = append(byWorkload[i], r)
		}
	}
	out := make([]*runResult, len(run))
	for i, rs := range byWorkload {
		out[i] = foldReps(rs)
	}
	return out, nil
}

// foldReps reduces the repetitions of one workload to the median, minimum
// and maximum of every metric; counts add up.
func foldReps(rs []*runResult) *runResult {
	if len(rs) == 1 {
		return rs[0]
	}
	out := &runResult{Workload: rs[0].Workload, Seed: rs[0].Seed, Samples: rs[0].Samples}
	for _, r := range rs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
		if r.Samples < out.Samples {
			out.Samples = r.Samples
		}
	}
	fold := func(of func(*runResult) map[string]metric) map[string]metric {
		folded := make(map[string]metric)
		for name, m := range of(rs[0]) {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, of(r)[name].Value)
			}
			sort.Float64s(vs)
			folded[name] = metric{Value: median(vs), Unit: m.Unit, Min: &vs[0], Max: &vs[len(vs)-1]}
		}
		return folded
	}
	out.Metrics = fold(func(r *runResult) map[string]metric { return r.Metrics })
	out.Wall = fold(func(r *runResult) map[string]metric { return r.Wall })
	return out
}

func printResult(r *runResult) {
	fmt.Printf("%s  seed=%d samples=%d attempted=%d failed=%d\n", r.Workload, r.Seed, r.Samples, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	printMetrics("", r.Metrics)
	printMetrics("wall.", r.Wall)
}

func printMetrics(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Printf("  %-36s %14.6g %s", prefix+name, m.Value, m.Unit)
		if m.Min != nil {
			fmt.Printf("  [%.6g .. %.6g]", *m.Min, *m.Max)
		}
		fmt.Println()
	}
}

// startProfile starts a CPU profile for one repetition of one workload and
// returns the function that stops it and writes the heap profile beside it.
func startProfile(dir, name string, rep int) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", name, rep))
	cpu, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		heap, err := os.Create(base + ".heap.pprof")
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return err
		}
		return heap.Close()
	}, nil
}
