package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	ivm "repro"
	"repro/internal/mring"
)

// metric is one reported number; min and max are set when it is a median
// over repetitions.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// runResult is what one run of one workload reports. Metrics are the ones
// BENCHMARK.json names. Wall holds the wall-clock readings of the same
// quantities: what a client of a dedicated host would see, recorded beside
// the CPU-clock metrics but never compared, because on a shared host they
// follow the hypervisor's schedule more than the program.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Samples   int               `json:"samples"` // timed transactions
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Wall      map[string]metric `json:"wall,omitempty"`
}

func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runConfig is the run protocol. The defaults are fixed in main.go.
type runConfig struct {
	seed     int64
	seconds  float64 // wall time of the measured window
	minTx    int     // and at least this many transactions, so each engine's p95 has ten samples beyond it
	tracedTx int     // script prefix the traced pass replays
	tmp      string  // scratch directory for durable engines
	out      string  // directory that receives the trace files
}

const (
	engineReps    = 7    // fresh engines measured per run
	warmupTx      = 50   // untimed transactions before each window, so lazy indexes exist
	recoveryTail  = 1000 // WAL records replayed by a durable recovery
	windowCapMult = 3    // a window never runs longer than this many times its share of -seconds
)

// feedSink is the subscriber of a feed workload: it replays every delivered
// delta into an empty relation, which must reconstruct Result.
type feedSink struct {
	acc *mring.Relation
	tr  *tracer
}

func (s *feedSink) deliver(d ivm.Delta) {
	id := s.tr.begin("ivm.deliver", int(d.Seq))
	d.Foreach(func(t ivm.Tuple, c float64) { s.acc.Add(t, c) })
	s.tr.end(id)
}

// setup builds, subscribes and warms one engine of the workload and
// returns the time that took: compile + deploy + Warm. The Warm argument
// is built before the clocks start, like every transaction.
func (w workload) setup(win map[string][]mring.Tuple, dir string) (d *deployment, sink *feedSink, wall, cpu time.Duration, err error) {
	batches, err := warmBatches(win)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	runtime.GC() // so that every set-up starts from the same collector state
	sw := startWatch()
	if d, err = w.open(dir); err != nil {
		return nil, nil, 0, 0, err
	}
	if w.feed {
		sink = &feedSink{acc: mring.NewRelation(d.eng.Program().TopView().Schema)}
		if _, err := d.eng.Subscribe(sink.deliver); err != nil {
			d.close()
			return nil, nil, 0, 0, err
		}
	}
	if err := d.eng.Warm(batches); err != nil {
		d.close()
		return nil, nil, 0, 0, err
	}
	wall, cpu = sw.stop()
	return d, sink, wall, cpu, nil
}

// timings collects one quantity on both clocks.
type timings struct{ wall, cpu []float64 }

func (t *timings) add(wall, cpu time.Duration, unit time.Duration) {
	t.wall = append(t.wall, float64(wall)/float64(unit))
	t.cpu = append(t.cpu, float64(cpu)/float64(unit))
}

// runEndToEnd is one run of one workload: engineReps times it sets up a
// fresh engine on the live window, warms it, drives the closed loop for
// its share of the window, checks the result and measures recovery. The
// same engine built twice differs by a fifth with where its state landed in
// memory and how the collector's cycles fell, so every metric is the median
// over the engines of what each engine measured.
func runEndToEnd(w workload, cfg runConfig) (*runResult, error) {
	r := &endToEnd{w: w, cfg: cfg, g: newGen(cfg.seed, w.tables, w.live, w.perTx), speed: newSpeedometer(),
		res: &runResult{Workload: w.name, Seed: cfg.seed, Metrics: map[string]metric{}, Wall: map[string]metric{}}}
	for rep := 0; rep < engineReps; rep++ {
		dir, err := os.MkdirTemp(cfg.tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		r.speed.sample()
		d, sink, wall, cpu, err := w.setup(r.g.window(), dir)
		if err != nil {
			return nil, err
		}
		r.speed.sample()
		r.setup.add(wall, cpu, time.Second)
		err = r.measure(d, sink, dir)
		d.close()
		if err != nil {
			return nil, err
		}
	}

	// Times read as at reference speed; the wall-clock readings stay raw.
	slow, res := r.speed.slowdown(), r.res
	res.Metrics["tuples_per_cpu_s"] = metric{Value: median(r.rate.cpu) * slow, Unit: "1/s"}
	res.Metrics["apply_cpu_iqm_ms"] = metric{Value: median(r.mid.cpu) / slow, Unit: "ms"}
	res.Metrics["apply_cpu_p95_ms"] = metric{Value: median(r.tail.cpu) / slow, Unit: "ms"}
	res.Metrics["setup_s"] = metric{Value: median(r.setup.cpu) / slow, Unit: "s"}
	res.Metrics["recovery_s"] = metric{Value: median(r.recovery.cpu) / slow, Unit: "s"}
	res.Metrics["live_heap_mb"] = metric{Value: median(r.heapMB), Unit: "MB"}
	res.Wall["tuples_per_s"] = metric{Value: median(r.rate.wall), Unit: "1/s"}
	res.Wall["apply_iqm_ms"] = metric{Value: median(r.mid.wall), Unit: "ms"}
	res.Wall["apply_p95_ms"] = metric{Value: median(r.tail.wall), Unit: "ms"}
	res.Wall["setup_s"] = metric{Value: median(r.setup.wall), Unit: "s"}
	res.Wall["recovery_s"] = metric{Value: median(r.recovery.wall), Unit: "s"}
	res.Wall["host_slowdown"] = metric{Value: slow, Unit: "ratio"}
	return res, nil
}

// endToEnd is the state of one run: the script, the host's speed, and one
// sample per engine of every quantity the run reports.
type endToEnd struct {
	w     workload
	cfg   runConfig
	g     *gen
	speed *speedometer
	res   *runResult

	setup, recovery timings   // s
	mid, tail       timings   // ms: an engine's typical latency and its 95th percentile
	rate            timings   // tuples/s
	heapMB          []float64 // live heap at the end of an engine's window
}

// measure drives one warmed engine: warm-up, window, result checks,
// recovery.
func (r *endToEnd) measure(d *deployment, sink *feedSink, dir string) error {
	w, g, cfg, res := r.w, r.g, r.cfg, r.res
	apply := func() (tuples int, wall, cpu time.Duration, err error) {
		tx, err := buildTx(g.next())
		if err != nil {
			return 0, 0, 0, err
		}
		sw := startWatch()
		err = d.eng.Apply(tx)
		wall, cpu = sw.stop()
		return tx.Len(), wall, cpu, err
	}
	for i := 0; i < warmupTx; i++ {
		if _, _, _, err := apply(); err != nil {
			return fmt.Errorf("warm-up transaction: %w", err)
		}
	}

	runtime.GC()
	var (
		lat               timings // ms per transaction
		tuples            int
		busyWall, busyCPU time.Duration
	)
	limit := time.Duration(cfg.seconds * float64(time.Second) / engineReps)
	minTx := (cfg.minTx + engineReps - 1) / engineReps
	for start := time.Now(); ; {
		r.speed.tick()
		n, wall, cpu, err := apply()
		res.check(err == nil, "Apply: %v", err)
		if err == nil {
			lat.add(wall, cpu, time.Millisecond)
			tuples += n
			busyWall += wall
			busyCPU += cpu
		}
		elapsed := time.Since(start)
		if (elapsed >= limit && len(lat.cpu) >= minTx) || elapsed >= windowCapMult*limit {
			break
		}
	}
	if len(lat.cpu) == 0 {
		return fmt.Errorf("no transaction succeeded: %v", res.Failures)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = append(r.heapMB, float64(ms.HeapAlloc)/(1<<20))
	res.Samples += len(lat.cpu)
	sort.Float64s(lat.wall)
	sort.Float64s(lat.cpu)
	r.mid.wall, r.mid.cpu = append(r.mid.wall, interquartileMean(lat.wall)), append(r.mid.cpu, interquartileMean(lat.cpu))
	r.tail.wall, r.tail.cpu = append(r.tail.wall, quantile(lat.wall, 0.95)), append(r.tail.cpu, quantile(lat.cpu, 0.95))
	r.rate.wall, r.rate.cpu = append(r.rate.wall, float64(tuples)/busyWall.Seconds()), append(r.rate.cpu, float64(tuples)/busyCPU.Seconds())

	// The live window, warmed into a fresh local engine, is the reference.
	ref, _, _, _, err := workload{query: w.query, backend: "local"}.setup(g.window(), "")
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	want := mring.NewRelation(ref.eng.Program().TopView().Schema)
	ref.eng.Result().Foreach(func(t ivm.Tuple, v float64) { want.Add(t, v) })
	ref.close()
	diff := relationDiff(want, d.eng.Result())
	res.check(diff == "", "result differs from re-evaluation of the live window: %s", diff)
	if sink != nil {
		diff := relationDiff(sink.acc, d.eng.Result())
		res.check(diff == "", "replayed feed does not reconstruct the result: %s", diff)
	}
	return r.recover(d, dir)
}

// recover measures the time from losing the engine to a readable Result
// again. A durable workload checkpoints, applies exactly recoveryTail more
// transactions, abandons the engine without Close and reopens its
// directory; any other workload has only its input to recover from, so it
// builds a new engine and warms it with the live window.
func (r *endToEnd) recover(d *deployment, dir string) error {
	w, g, out := r.w, r.g, &r.recovery
	r.speed.sample()
	defer r.speed.sample()
	if !w.durable {
		d.close()
		rebuilt, _, wall, cpu, err := w.setup(g.window(), "")
		if err != nil {
			return fmt.Errorf("rebuild engine: %w", err)
		}
		rebuilt.close()
		out.add(wall, cpu, time.Second)
		return nil
	}
	if err := d.eng.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for i := 0; i < recoveryTail; i++ {
		tx, err := buildTx(g.next())
		if err != nil {
			return err
		}
		if err := d.eng.Apply(tx); err != nil {
			return fmt.Errorf("transaction after checkpoint: %w", err)
		}
	}
	want := d.eng.Result().String()
	d.abandon()
	runtime.GC()
	sw := startWatch()
	reopened, err := w.open(dir)
	if err != nil {
		return fmt.Errorf("reopen durable directory: %w", err)
	}
	got := reopened.eng.Result().String()
	wall, cpu := sw.stop()
	out.add(wall, cpu, time.Second)
	replayed := reopened.eng.Stats().Durability.Recovery.ReplayedRecords
	r.res.check(got == want && replayed == recoveryTail,
		"recovered result differs from the abandoned engine's, or replayed %d records, want %d", replayed, recoveryTail)
	reopened.close()
	return nil
}

// relationDiff compares a result with the wanted contents group by group,
// with relative tolerance 1e-9, and describes the first difference, or
// returns "".
func relationDiff(want *mring.Relation, got *ivm.Result) string {
	diff := ""
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	got.Foreach(func(t ivm.Tuple, v float64) {
		if w := want.Get(t); diff == "" && !near(w, v) {
			diff = fmt.Sprintf("group %v: want %v, got %v", t, w, v)
		}
	})
	want.Foreach(func(t mring.Tuple, v float64) {
		if g := got.Get(t); diff == "" && !near(v, g) {
			diff = fmt.Sprintf("group %v: want %v, got %v", t, v, g)
		}
	})
	return diff
}

// quantile reads the q-quantile of an ascending sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// interquartileMean is the mean of the middle half of an ascending sample:
// the typical transaction. The median is not used for that because latency
// here has two modes, a transaction alone and one beside a collector cycle,
// with about half the transactions in each, and the median jumps from one
// mode to the other with the share; this moves a third as far.
func interquartileMean(sorted []float64) float64 {
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
