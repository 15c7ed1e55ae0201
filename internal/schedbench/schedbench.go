// Package schedbench holds the scheduling-hot-path micro-benchmarks in
// library form, so the same workloads back both `go test -bench` (the
// repo-root bench_test.go) and the safehome-bench binary's `-out` mode,
// which records ns/op and allocs/op to a BENCH_*.json trajectory file.
//
// The headline case is TimelineInsertion — Algorithm 1's cost of placing one
// routine into an occupied lineage table (the paper's Fig 15d mechanism
// cost) — plus the sharded-manager end-to-end throughput and the precedence
// graph's AddEdge inner loop.
package schedbench

import (
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/manager"
	"safehome/internal/order"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/sim"
	"safehome/internal/visibility"
)

// Routine builds a deterministic pseudo-random bench routine with nCmds
// commands spread over a plug fleet of the given size.
func Routine(name string, nCmds, devices int, seed int64) *routine.Routine {
	r := routine.New(name)
	for c := 0; c < nCmds; c++ {
		r.Commands = append(r.Commands, routine.Command{
			Device:   device.ID(fmt.Sprintf("plug-%d", int(seed+int64(c*7))%devices)),
			Target:   device.On,
			Duration: time.Duration(1+(c%5)) * time.Minute,
		})
	}
	return r
}

// OccupiedController builds an EV/TL controller whose lineages are already
// busy with `routines` background routines over `devices` devices (the
// paper's Raspberry Pi configuration for Fig 15d).
func OccupiedController(devices, routines int) visibility.Controller {
	reg := device.Plugs(devices)
	fleet := device.NewFleet(reg)
	env := visibility.NewSimEnv(sim.NewAtEpoch(), fleet)
	ctrl := visibility.New(env, fleet.Snapshot(), visibility.DefaultOptions(visibility.EV))
	for i := 0; i < routines; i++ {
		ctrl.Submit(Routine(fmt.Sprintf("bg-%d", i), 3, devices, int64(i)))
	}
	return ctrl
}

// TimelineInsertion measures Algorithm 1's cost of placing one new routine
// with nCmds commands into a lineage table already occupied by 30 routines
// over 15 devices (Fig 15d).
func TimelineInsertion(nCmds int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctrl := OccupiedController(15, 30)
			probe := Routine("probe", nCmds, 15, int64(i))
			b.StartTimer()
			ctrl.Submit(probe)
		}
	}
}

// ManagerThroughput measures the sharded HomeManager's end-to-end routine
// throughput — submit, EV-schedule, execute on the virtual clock, commit —
// with parallel API clients submitting to homes spread over every shard. It
// reports a routines/s extra metric.
func ManagerThroughput(shards, homes int) func(b *testing.B) {
	return func(b *testing.B) {
		managerThroughput(b, manager.Config{
			Shards: shards,
			Home:   manager.HomeConfig{Model: visibility.EV},
		}, homes)
	}
}

// ManagerThroughputJournaled is ManagerThroughput with durability on under
// the given tier: every home journals through its shard's writer under a
// shared DataDir. sync starts an fsync cycle as soon as a commit waits;
// group holds a short window first so a shard's homes ride one cycle; async
// acknowledges ahead of the disk. The sync-vs-group gap is what the window
// buys.
func ManagerThroughputJournaled(shards, homes int, mode journal.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		// The bench is closed-loop: each parallel client blocks in Submit
		// until its commit's covering fsync lands. Many more clients than
		// cores keep every home busy during a sync, which is what gives the
		// group writer commits to coalesce — as real API traffic would.
		// Several clients per home also let the mailbox batch-drain coalesce
		// submissions, so a commit window covers whole batches, not single
		// operations.
		b.SetParallelism(256)
		managerThroughput(b, manager.Config{
			Shards:  shards,
			DataDir: b.TempDir(),
			Journal: journal.Options{Mode: mode},
			Home:    manager.HomeConfig{Model: visibility.EV},
		}, homes)
	}
}

func managerThroughput(b *testing.B, cfg manager.Config, homes int) {
	m := manager.New(cfg)
	defer m.Close()
	if cfg.DataDir != "" {
		if st := m.Status(); st.DurabilityError != "" {
			b.Fatalf("durability degraded to %s: %s", st.Durability, st.DurabilityError)
		}
	}
	if _, err := m.AddHomes("home", homes, 8); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			id := manager.HomeID(fmt.Sprintf("home-%d", i%int64(homes)))
			r := Routine("bench", 3, 8, i)
			if !submitRetrying(b, func() error { _, err := m.Submit(id, r); return err }) {
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routines/s")
}

// submitRetrying runs one benchmark submission, retrying while the home's
// mailbox sheds it with ErrOverloaded (the home is draining; a real client
// would back off and retry). It reports false on any other error.
func submitRetrying(b *testing.B, submit func() error) bool {
	for {
		err := submit()
		if err == nil {
			return true
		}
		if errors.Is(err, rt.ErrOverloaded) {
			continue
		}
		b.Error(err)
		return false
	}
}

// RuntimeThroughput measures one home runtime's typed-mailbox round trip end
// to end — admit the op, batch-dequeue it on the loop goroutine, EV-schedule
// and execute on the virtual clock, deliver the reply — with parallel
// clients hammering a single mailbox. It isolates the seam the manager and
// hub both sit on, and reports a routines/s extra metric.
func RuntimeThroughput(batch int) func(b *testing.B) {
	return func(b *testing.B) {
		runtimeThroughput(b, rt.Config{
			ID:    "bench",
			Model: visibility.EV,
			Batch: batch,
		})
	}
}

// RuntimeThroughputJournaled is RuntimeThroughput with durability on: every
// batch drain is group-committed (one fsync) to a write-ahead journal in a
// temporary data directory before its replies are delivered. The delta
// against the memory-only rows is the price of crash safety — amortized per
// batch, so it shrinks as batch dequeue coalesces concurrent submissions.
func RuntimeThroughputJournaled(batch int) func(b *testing.B) {
	return RuntimeThroughputTiered(batch, journal.ModeSync)
}

// RuntimeThroughputTiered is RuntimeThroughputJournaled under an explicit
// durability tier. The single home appends through its journal's private
// writer — the commit pipeline without cross-home traffic, where sync and
// group coincide (a lone home never waits for a window); async shows the
// ceiling with acknowledgement decoupled from the disk.
func RuntimeThroughputTiered(batch int, mode journal.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		runtimeThroughput(b, rt.Config{
			ID:      "bench",
			Model:   visibility.EV,
			Batch:   batch,
			DataDir: b.TempDir(),
			Journal: journal.Options{Mode: mode},
		})
	}
}

func runtimeThroughput(b *testing.B, cfg rt.Config) {
	home, err := rt.NewSim(cfg, device.Plugs(8))
	if err != nil {
		b.Fatal(err)
	}
	defer home.Close()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := Routine("bench", 3, 8, next.Add(1))
			if !submitRetrying(b, func() error { _, err := home.Submit(r); return err }) {
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routines/s")
	if cfg.DataDir != "" {
		if err := home.JournalError(); err != nil {
			b.Fatalf("journal failed during bench: %v", err)
		}
	}
}

// QueryThroughput measures the read path under a mixed read/write workload:
// readPct% of parallel operations are status polls (Counts) against one home
// runtime, the rest are routine submissions (readPct=100 is pure parallel
// readers — the cost of a query itself). Reads load the loop's latest
// published snapshot and never touch the mailbox. Reports reads/s and
// writes/s extra metrics. Mixed runs are closed-loop: a virtual-clock write
// costs ~1000x a snapshot read, so on few-core machines their ns/op is
// write-bound and the read path shows up undiluted in the reads=100 case.
func QueryThroughput(readPct int) func(b *testing.B) {
	return func(b *testing.B) {
		home, err := rt.NewSim(rt.Config{
			ID:    "bench",
			Model: visibility.EV,
		}, device.Plugs(8))
		if err != nil {
			b.Fatal(err)
		}
		defer home.Close()
		// Seed some history so reads return real payloads.
		for i := 0; i < 64; i++ {
			if _, err := home.Submit(Routine("seed", 3, 8, int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		var next, reads, writes atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				if int(i%100) < readPct {
					if c := home.Counts(); c.Routines == 0 {
						b.Error("query saw an empty home")
						return
					}
					reads.Add(1)
					continue
				}
				r := Routine("bench", 3, 8, i)
				if !submitRetrying(b, func() error { _, err := home.Submit(r); return err }) {
					return
				}
				writes.Add(1)
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(reads.Load())/b.Elapsed().Seconds(), "reads/s")
		b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "writes/s")
	}
}

// DensityHomes returns the registered-fleet size for the HomeDensity
// benchmark: SAFEHOME_DENSITY_HOMES when set to an integer >= 100, else the
// full-size default of 100000.
func DensityHomes() int {
	if s := os.Getenv("SAFEHOME_DENSITY_HOMES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 100 {
			return n
		}
	}
	return 100_000
}

// HomeDensity measures the hibernation tentpole: register `homes` homes on a
// hibernating manager — every one lands cold (a frozen record, no runtime, no
// goroutines) — then wake a hotPct% hot set by first touch and report what
// the paper's "millions of registered homes in one process" claim rests on:
//
//	cold-B/home   resident heap bytes per registered-but-frozen home
//	live-B/home   incremental heap bytes per woken home — the all-live
//	              per-home cost the frozen representation is measured against
//	live/cold-x   the density win: how many times more homes fit frozen
//	wake-p50-ms / wake-p99-ms   first-touch reanimation latency
//
// Each b.N iteration builds the whole fleet from scratch; run with
// -benchtime=1x for the big configurations.
func HomeDensity(homes int, hotPct float64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			homeDensity(b, homes, hotPct)
		}
	}
}

func homeDensity(b *testing.B, homes int, hotPct float64) {
	m := manager.New(manager.Config{
		Shards:         8,
		DataDir:        b.TempDir(),
		HibernateAfter: time.Hour,
		Home:           manager.HomeConfig{Model: visibility.EV},
	})
	defer m.Close()

	heap := func() uint64 {
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	base := heap()
	if _, err := m.AddHomes("home", homes, 4); err != nil {
		b.Fatal(err)
	}
	coldHeap := heap()
	coldBytes := float64(coldHeap-base) / float64(homes)
	if st := m.Status(); st.Frozen != homes {
		b.Fatalf("registered %d homes, %d are frozen", homes, st.Frozen)
	}

	// Wake the hot set by first touch, timing each reanimation — journal
	// recovery behind the singleflight guard, striding so the hot homes
	// spread over every shard.
	hot := int(float64(homes) * hotPct / 100)
	if hot < 1 {
		hot = 1
	}
	stride := homes / hot
	lat := make([]time.Duration, 0, hot)
	for i := 0; i < hot; i++ {
		id := manager.HomeID(fmt.Sprintf("home-%d", i*stride))
		start := time.Now()
		if _, err := m.Runtime(id); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	liveBytes := float64(heap()-coldHeap) / float64(hot)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := lat[len(lat)/2]
	p99 := lat[len(lat)*99/100]
	if os.Getenv("SAFEHOME_DENSITY_HIST") != "" {
		printWakeHistogram(lat)
	}

	b.ReportMetric(coldBytes, "cold-B/home")
	b.ReportMetric(liveBytes, "live-B/home")
	if coldBytes > 0 {
		b.ReportMetric(liveBytes/coldBytes, "live/cold-x")
	}
	b.ReportMetric(float64(p50)/float64(time.Millisecond), "wake-p50-ms")
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "wake-p99-ms")
}

// printWakeHistogram renders the first-touch wake-latency distribution as a
// logarithmic bucket histogram on stderr (SAFEHOME_DENSITY_HIST=1) — the
// nightly density sweep captures it as an artifact alongside the p50/p99
// extras, since a tail regression hides inside two percentiles.
func printWakeHistogram(sorted []time.Duration) {
	buckets := []time.Duration{
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	}
	counts := make([]int, len(buckets)+1)
	for _, d := range sorted {
		i := sort.Search(len(buckets), func(i int) bool { return d < buckets[i] })
		counts[i]++
	}
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(os.Stderr, "wake latency histogram (%d wakes, max %v):\n", len(sorted), sorted[len(sorted)-1])
	for i, c := range counts {
		label := fmt.Sprintf(">= %v", buckets[len(buckets)-1])
		if i < len(buckets) {
			label = fmt.Sprintf("< %v", buckets[i])
		}
		fmt.Fprintf(os.Stderr, "  %-10s %7d %s\n", label, c, strings.Repeat("#", c*40/max))
	}
}

// GraphAddEdge measures adding (and removing again) one precedence
// constraint — including the cycle-check DFS — on a layered graph of the
// given node count, the inner loop of every placement decision.
func GraphAddEdge(nodes int) func(b *testing.B) {
	return func(b *testing.B) {
		g := order.NewGraph()
		const layers = 8
		per := nodes / layers
		if per == 0 {
			per = 1
		}
		for i := 0; i < nodes-per; i++ {
			next := (i/per + 1) * per
			for j := next; j < next+per && j < nodes; j++ {
				if err := g.AddEdge(order.RoutineNode(routine.ID(i+1)), order.RoutineNode(routine.ID(j+1))); err != nil {
					b.Fatal(err)
				}
			}
		}
		probe := order.RoutineNode(routine.ID(nodes + 1))
		first := order.RoutineNode(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.AddEdge(first, probe); err != nil {
				b.Fatal(err)
			}
			g.Remove(probe)
		}
	}
}

// Case is one named benchmark the safehome-bench binary can run.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Cases returns the scheduler-hot-path suite recorded in BENCH_schedhot.json.
func Cases() []Case {
	var out []Case
	for _, n := range []int{2, 5, 10} {
		out = append(out, Case{Name: fmt.Sprintf("TimelineInsertion/commands=%d", n), Fn: TimelineInsertion(n)})
	}
	for _, n := range []int{16, 64, 256} {
		out = append(out, Case{Name: fmt.Sprintf("GraphAddEdge/nodes=%d", n), Fn: GraphAddEdge(n)})
	}
	for _, n := range []int{1, 32} {
		out = append(out, Case{Name: fmt.Sprintf("RuntimeThroughput/batch=%d", n), Fn: RuntimeThroughput(n)})
	}
	for _, n := range []int{1, 32} {
		out = append(out, Case{Name: fmt.Sprintf("RuntimeThroughput/batch=%d/journal=on", n), Fn: RuntimeThroughputJournaled(n)})
	}
	for _, md := range []journal.Mode{journal.ModeGroup, journal.ModeAsync} {
		out = append(out, Case{Name: fmt.Sprintf("RuntimeThroughput/batch=32/journal=%v", md), Fn: RuntimeThroughputTiered(32, md)})
	}
	for _, s := range []int{1, 2, 4, 8} {
		out = append(out, Case{Name: fmt.Sprintf("ManagerThroughput/shards=%d", s), Fn: ManagerThroughput(s, 64)})
	}
	for _, md := range []journal.Mode{journal.ModeSync, journal.ModeGroup, journal.ModeAsync} {
		out = append(out, Case{Name: fmt.Sprintf("ManagerThroughput/shards=8/journal=%v", md), Fn: ManagerThroughputJournaled(8, 64, md)})
	}
	// The hibernation density row: 100k registered homes, 1% hot. One
	// iteration builds and freezes the whole fleet, so at the default
	// benchtime this records a single full-size run. CI's recorder smoke
	// shrinks it through the same env knob the benchmark honours.
	homes := DensityHomes()
	out = append(out, Case{Name: fmt.Sprintf("HomeDensity/homes=%d/hot=1%%", homes), Fn: HomeDensity(homes, 1)})
	// Query throughput runs last: its read-heavy homes accumulate the most
	// per-home state of the suite, and recording it after the throughput
	// benchmarks keeps their GC environment comparable across trajectory
	// entries.
	for _, mix := range []int{100, 90, 50} {
		out = append(out, Case{Name: fmt.Sprintf("QueryThroughput/reads=%d", mix), Fn: QueryThroughput(mix)})
	}
	return out
}
