package main

import (
	"runtime"
	"time"
)

// stopwatch reads two clocks around one call: the wall clock and the CPU
// time of the whole process (see cpuNow).
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

// clockCost is the CPU time one start/stop pair itself reads, which stop
// takes off; against a 25 µs transaction it would otherwise be 2 %.
var clockCost = func() time.Duration {
	pairs := make([]float64, 1001)
	for i := range pairs {
		c := cpuNow()
		t := time.Now()
		_ = time.Since(t)
		pairs[i] = float64(cpuNow() - c)
	}
	return time.Duration(median(pairs))
}()

func startWatch() stopwatch { return stopwatch{cpu: cpuNow(), wall: time.Now()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	wall = time.Since(s.wall)
	if cpu = cpuNow() - s.cpu - clockCost; cpu < 0 {
		cpu = 0
	}
	return wall, cpu
}

func (s stopwatch) cpuTime() time.Duration {
	_, cpu := s.stop()
	return cpu
}

// speedometer measures how fast the host runs this process right now, by
// timing a fixed kernel on the calling thread's CPU clock: a chase through
// 4 MB of dependent random loads with a little arithmetic between them,
// which allocates nothing and calls nothing. On a shared host the same
// program's CPU time drifts by a third within a minute, with the clock
// rate and the neighbours' use of the cache; a run samples the kernel all
// along and reports every time as it would read at reference speed, the
// speed at which the kernel takes refKernelMs.
type speedometer struct {
	mem     []uint64
	x       uint64
	samples []float64 // ms per pass
	last    time.Time
}

const (
	refKernelMs  = 0.225
	kernelWords  = 1 << 19 // 4 MB
	kernelLoads  = 40000
	sampleEvery  = 50 * time.Millisecond // 2 % of the time between samples
	kernelWarmup = 20
)

func newSpeedometer() *speedometer {
	s := &speedometer{mem: make([]uint64, kernelWords), x: 88172645463325252}
	for i := 0; i < kernelWarmup; i++ {
		s.sample()
	}
	s.samples = s.samples[:0]
	return s
}

// tick samples the kernel if sampleEvery has passed since the last sample.
func (s *speedometer) tick() {
	if time.Since(s.last) >= sampleEvery {
		s.sample()
	}
}

func (s *speedometer) sample() {
	runtime.LockOSThread()
	start := threadCPUNow()
	x, mem := s.x, s.mem
	mask := uint64(len(mem) - 1)
	for i := 0; i < kernelLoads; i++ {
		v := &mem[x&mask]
		*v = *v*31 + x
		x ^= *v
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	s.x = x
	took := threadCPUNow() - start
	runtime.UnlockOSThread()
	s.samples = append(s.samples, float64(took)/1e6)
	s.last = time.Now()
}

// slowdown is how many times slower than reference speed the host ran, by
// the median sample; a measured time divided by it reads at reference
// speed.
func (s *speedometer) slowdown() float64 { return median(s.samples) / refKernelMs }
