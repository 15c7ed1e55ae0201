package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// sizes is every per-round operation count, all derived from the one -scale
// factor. A round is a fixed count, never a fixed duration: per-home history
// grows with every routine and slows later operations, so equal work on two
// commits needs equal counts. -seconds only decides how many rounds run.
type sizes struct {
	memLat, memThr   int
	durLat, durThr   int
	pollOps          int
	pollMetricsEvery int
	paperSpecs       int
	recoverOps       int
	wakeCycles       int
}

func sizesFor(scale float64) sizes {
	n := func(base, min int) int { return max(int(math.Round(float64(base)*scale)), min) }
	return sizes{
		memLat: n(20_000, 64), memThr: n(60_000, 64),
		durLat: n(1_000, 32), durThr: n(10_000, 64),
		pollOps: n(400_000, 256), pollMetricsEvery: n(100_000, 64),
		paperSpecs: n(paperSpecs, 2),
		recoverOps: n(51_200, 128),
		wakeCycles: 3,
	}
}

func (s sizes) latOps(workload string) int {
	if workload == "submit_durable" {
		return s.durLat
	}
	return s.memLat
}

func (s sizes) thrOps(workload string) int {
	if workload == "submit_durable" {
		return s.durThr
	}
	return s.memThr
}

// --- statistics -----------------------------------------------------------------

// percentile returns the p-th percentile (0..100) of an ascending slice by
// nearest rank.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(ns []int64) []int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func usOf(ns float64) float64 { return ns / 1e3 }

// --- process counters -----------------------------------------------------------

// procSample is the process-wide state read at phase boundaries only
// (ReadMemStats stops the world, so never inside a timed loop).
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user+sys, getrusage
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	heap    uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		heap:    ms.HeapAlloc,
	}
}

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// --- the run record --------------------------------------------------------------

// run collects one workload run: per-round observations (reported as their
// median), single-shot values, and the attempted/failed tally every output
// check feeds.
type run struct {
	cfg   config
	sz    sizes
	mu    sync.Mutex
	obs   map[string][]float64
	unit  map[string]string
	count map[string]int // samples behind a metric (latency samples, ops, ...)

	attempted, failed int64
	failures          []string // first few failure messages, for the operator
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, sz: sizesFor(cfg.scale), obs: map[string][]float64{}, unit: map[string]string{}, count: map[string]int{}}
}

// observe records one round's value of a metric; samples is how many raw
// measurements stand behind it.
func (r *run) observe(name, unit string, v float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs[name] = append(r.obs[name], v)
	r.unit[name] = unit
	r.count[name] += samples
}

// attempt tallies n operations or checks of which bad failed.
func (r *run) attempt(n, bad int64) {
	r.mu.Lock()
	r.attempted += n
	r.failed += bad
	r.mu.Unlock()
}

// check is one output check: it counts as attempted, and as failed when !ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// rounds calls fn until -seconds have passed since the first call began, and
// at least once. Between rounds the heap is collected so each starts from the
// same state.
func (r *run) rounds(fn func(round int) error) error {
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		runtime.GC()
		if err := fn(i); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// phase is one timed stretch of a round: fixed op count, wall, CPU, allocs.
type phase struct {
	ops        int
	start, end procSample
}

func beginPhase(ops int) phase { return phase{ops: ops, start: sampleProc()} }
func (p *phase) stop()         { p.end = sampleProc() }
func (p phase) elapsed() time.Duration {
	return p.end.wall.Sub(p.start.wall)
}

// observePhases reports the round's cost metrics over its timed phases.
func (r *run) observePhases(phases ...phase) {
	var ops int
	var cpu time.Duration
	var mallocs uint64
	for _, p := range phases {
		ops += p.ops
		cpu += p.end.cpu - p.start.cpu
		mallocs += p.end.mallocs - p.start.mallocs
	}
	r.observe("cpu_us_per_op", "us", float64(cpu.Microseconds())/float64(ops), ops)
	r.observe("allocs_per_op", "count", float64(mallocs)/float64(ops), ops)
}

// observeLatency reports one round's latency samples as op_p50_us, their
// median, and op_tail_ratio, the 99th percentile over that median. The raw
// 99th percentile swings twice as far as the median whenever the shared host
// slows down; taken over the same round's median it repeats as well as the
// median does. op_p99_us itself is still printed, outside the contract.
func (r *run) observeLatency(ns []int64) {
	s := sortedCopy(ns)
	p50, p99 := percentile(s, 50), percentile(s, 99)
	r.observe("op_p50_us", "us", usOf(p50), len(s))
	r.observe("op_tail_ratio", "ratio", p99/p50, len(s))
	r.observe("op_p99_us", "us", usOf(p99), len(s))
}
