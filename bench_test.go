package safehome

// Benchmark harness: one testing.B benchmark per figure/table of the paper's
// evaluation (each iteration regenerates a scaled-down version of the
// artifact through the experiments package), plus micro-benchmarks of the
// mechanisms the paper reports costs for — most importantly the Timeline
// scheduler's insertion path (Fig 15d) and the lineage-table operations.
//
// Regenerate the full-size artifacts with:
//
//	go run ./cmd/safehome-bench -experiment all

import (
	"fmt"
	"testing"

	"safehome/internal/device"
	"safehome/internal/experiments"
	"safehome/internal/harness"
	"safehome/internal/journal"
	"safehome/internal/kasa"
	"safehome/internal/lineage"
	"safehome/internal/routine"
	"safehome/internal/schedbench"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// benchOpts keeps each iteration small so `go test -bench=.` stays tractable;
// the safehome-bench binary runs the full-size versions.
func benchOpts() experiments.Options { return experiments.Options{Trials: 1, Quick: true, Seed: 1} }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := exp.Run(benchOpts())
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// --- one benchmark per paper artifact -------------------------------------------

func BenchmarkFigure1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFigure12a(b *testing.B) { runExperiment(b, "fig12a") }
func BenchmarkFigure12b(b *testing.B) { runExperiment(b, "fig12b") }
func BenchmarkFigure13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFigure15ab(b *testing.B) {
	runExperiment(b, "fig15ab")
}
func BenchmarkFigure15c(b *testing.B) { runExperiment(b, "fig15c") }
func BenchmarkFigure15d(b *testing.B) { runExperiment(b, "fig15d") }
func BenchmarkFigure16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkTable3(b *testing.B)    { runExperiment(b, "table3") }

// --- trace scenarios under each visibility model ---------------------------------

func benchScenario(b *testing.B, gen harness.Generator, model visibility.Model) {
	b.Helper()
	b.ReportAllocs()
	opts := visibility.DefaultOptions(model)
	for i := 0; i < b.N; i++ {
		res := harness.Run(gen(int64(i)+1), opts, int64(i)+1)
		if res.Report.Routines == 0 {
			b.Fatal("scenario produced no routines")
		}
	}
}

func BenchmarkMorningScenario(b *testing.B) {
	for _, model := range []visibility.Model{visibility.WV, visibility.GSV, visibility.PSV, visibility.EV} {
		b.Run(model.String(), func(b *testing.B) {
			benchScenario(b, func(seed int64) workload.Spec { return workload.Morning(seed) }, model)
		})
	}
}

func BenchmarkPartyScenario(b *testing.B) {
	benchScenario(b, func(seed int64) workload.Spec { return workload.Party(seed) }, visibility.EV)
}

func BenchmarkFactoryScenario(b *testing.B) {
	benchScenario(b, func(seed int64) workload.Spec {
		p := workload.DefaultFactoryParams()
		p.Stages = 20
		p.Seed = seed
		return workload.Factory(p)
	}, visibility.EV)
}

// --- Fig 15d: the true scheduler-insertion micro-benchmark -----------------------

// BenchmarkTimelineInsertion measures Algorithm 1's cost of placing one new
// routine into a lineage table already occupied by 30 routines over 15
// devices (the paper's Raspberry Pi configuration, Fig 15d). The workload
// lives in internal/schedbench so `safehome-bench -out` records the exact
// same numbers into BENCH_schedhot.json.
func BenchmarkTimelineInsertion(b *testing.B) {
	for _, nCmds := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("commands=%d", nCmds), schedbench.TimelineInsertion(nCmds))
	}
}

// --- home runtime mailbox throughput ----------------------------------------------

// BenchmarkRuntimeThroughput measures one home runtime's typed-mailbox round
// trip — admission, batch dequeue, EV scheduling and execution on the virtual
// clock, reply delivery — with parallel clients on a single mailbox. batch=1
// vs batch=32 isolates what batch dequeue buys under contention. Shared with
// safehome-bench via internal/schedbench.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, batch := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), schedbench.RuntimeThroughput(batch))
		// journal=on group-commits every batch drain to a write-ahead journal
		// in a temp dir (one fsync per batch) before replies are delivered —
		// the durability overhead of PR 5, amortized by batch dequeue.
		b.Run(fmt.Sprintf("batch=%d/journal=on", batch), schedbench.RuntimeThroughputJournaled(batch))
	}
	// The other durability tiers at the amortizing batch size: group runs the
	// home over a shared writer (the coalescing pipeline itself), async
	// acknowledges ahead of the disk.
	for _, mode := range []journal.Mode{journal.ModeGroup, journal.ModeAsync} {
		b.Run(fmt.Sprintf("batch=32/journal=%v", mode), schedbench.RuntimeThroughputTiered(32, mode))
	}
}

// --- off-loop read path -----------------------------------------------------------

// BenchmarkQueryThroughput measures mixed read/write operations per second
// against one home runtime: pure readers (reads=100) plus 90/10 and 50/50
// read/write mixes. Reads answer from the loop's published snapshot and
// never touch the mailbox. Shared with safehome-bench via
// internal/schedbench; the reads/s extra metric is the headline.
func BenchmarkQueryThroughput(b *testing.B) {
	for _, mix := range []int{100, 90, 50} {
		b.Run(fmt.Sprintf("reads=%d", mix), schedbench.QueryThroughput(mix))
	}
}

// --- multi-tenant manager throughput ----------------------------------------------

// BenchmarkManagerThroughput measures the sharded HomeManager's end-to-end
// routine throughput — submit, EV-schedule, execute on the virtual clock,
// commit — across worker-shard counts. Each parallel bench goroutine plays an
// API client submitting to homes spread over every shard; the routines/s
// metric is the headline scale-out number (expect it to grow with shards up
// to the core count). Shared with safehome-bench via internal/schedbench.
func BenchmarkManagerThroughput(b *testing.B) {
	const homes = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), schedbench.ManagerThroughput(shards, homes))
	}
	// Journaled rows expose the fsync wall and its collapse: sync pays one
	// fsync per home per drain, group coalesces each shard's homes into one
	// shared-writer fsync cycle, async decouples acknowledgement from the
	// disk entirely.
	for _, mode := range []journal.Mode{journal.ModeSync, journal.ModeGroup, journal.ModeAsync} {
		b.Run(fmt.Sprintf("shards=8/journal=%v", mode), schedbench.ManagerThroughputJournaled(8, homes, mode))
	}
}

// --- hibernation: registered-home density -----------------------------------------

// BenchmarkHomeDensity measures how many registered homes one process can
// hold: every home registers cold (frozen record, no runtime, no goroutines),
// a ~1% hot set reanimates by first touch. Reported extras are resident bytes
// per frozen home vs per live home (the density win) and first-touch wake
// latency p50/p99. One iteration builds the whole fleet — run with
// -benchtime=1x; size the fleet with SAFEHOME_DENSITY_HOMES (default 100000,
// CI smoke uses 20000).
func BenchmarkHomeDensity(b *testing.B) {
	homes := schedbench.DensityHomes()
	b.Run(fmt.Sprintf("homes=%d/hot=1%%", homes), schedbench.HomeDensity(homes, 1))
}

// --- mechanism micro-benchmarks ---------------------------------------------------

func BenchmarkLineageTableAppendAndCompact(b *testing.B) {
	b.ReportAllocs()
	devs := []device.ID{"a", "b", "c", "d", "e"}
	initial := make(map[device.ID]device.State, len(devs))
	for _, d := range devs {
		initial[d] = device.Off
	}
	for i := 0; i < b.N; i++ {
		tab := lineage.NewTable(initial)
		for r := routine.ID(1); r <= 20; r++ {
			for _, d := range devs {
				if _, err := tab.Append(d, lineage.Access{Routine: r, Status: lineage.Scheduled}); err != nil {
					b.Fatal(err)
				}
			}
		}
		for r := routine.ID(1); r <= 20; r++ {
			for _, d := range devs {
				_ = tab.SetStatus(d, r, lineage.Acquired)
				_ = tab.SetTarget(d, r, device.On)
				_ = tab.SetStatus(d, r, lineage.Released)
			}
			tab.Compact(r, devs)
		}
	}
}

func BenchmarkEVMicroWorkload(b *testing.B) {
	p := workload.DefaultMicroParams()
	p.Routines = 40
	p.Devices = 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i) + 1
		res := harness.Run(workload.Micro(p), visibility.DefaultOptions(visibility.EV), p.Seed)
		if res.Report.Committed == 0 {
			b.Fatal("no routine committed")
		}
	}
}

func BenchmarkKasaCodecRoundTrip(b *testing.B) {
	payload := []byte(`{"context":{"device_id":"plug-7"},"system":{"set_relay_state":{"state":1}}}`)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if out := kasa.Decrypt(kasa.Encrypt(payload)); len(out) != len(payload) {
			b.Fatal("round trip length mismatch")
		}
	}
}

func BenchmarkCongruenceCheck(b *testing.B) {
	// End-state serializability check for a committed Morning scenario.
	spec := workload.Morning(1)
	res := harness.Run(spec, visibility.DefaultOptions(visibility.EV), 1)
	if !res.Report.FinalCongruent {
		b.Fatal("expected a congruent end state")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := harness.Run(spec, visibility.DefaultOptions(visibility.EV), int64(i))
		if !out.Report.FinalCongruent {
			b.Fatal("unexpected incongruence")
		}
	}
}
