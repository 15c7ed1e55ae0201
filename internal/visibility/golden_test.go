package visibility_test

// Differential ("golden") scheduling tests: the full observable scheduling
// behaviour — every controller event, the lineage-table contents after every
// placement, the final serialization order and the final committed states —
// is captured on the three trace scenarios (Morning, Party, Factory) under
// every EV scheduling policy and lease configuration, and compared against a
// recording checked into testdata/.
//
// The recording was produced by the original map-based scheduler
// implementation, so these tests prove that the allocation-free rewrite of
// the scheduling hot path (interned precedence graph, scratch pre/post sets,
// index wait queue) makes exactly the same scheduling decisions.
//
// Regenerate with:
//
//	go test ./internal/visibility -run TestGoldenScheduling -update-golden

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/lineage"
	"safehome/internal/sim"
	"safehome/internal/stats"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/sched_golden.json from the current implementation")

const goldenPath = "testdata/sched_golden.json"

// goldenEntry is the stored fingerprint of one (scenario, config, seed) run.
type goldenEntry struct {
	// TraceSHA is a digest over the full trace: every event plus a lineage
	// table snapshot after every submission (i.e. after every placement
	// decision).
	TraceSHA string `json:"trace_sha"`
	// Lines is the number of trace lines (for quick divergence triage).
	Lines int `json:"lines"`
	// Serialization is the final serialization order, verbatim.
	Serialization string `json:"serialization"`
	// Committed is the final committed-state view, sorted by device.
	Committed string `json:"committed"`
}

// goldenConfig is one controller configuration exercised by the suite.
type goldenConfig struct {
	name string
	opts visibility.Options
}

func goldenConfigs() []goldenConfig {
	mk := func(k visibility.SchedulerKind, pre, post bool) visibility.Options {
		o := visibility.DefaultOptions(visibility.EV)
		o.Scheduler = k
		o.PreLease = pre
		o.PostLease = post
		return o
	}
	return []goldenConfig{
		{"TL", mk(visibility.SchedTL, true, true)},
		{"TL-preoff", mk(visibility.SchedTL, false, true)},
		{"TL-postoff", mk(visibility.SchedTL, true, false)},
		{"FCFS", mk(visibility.SchedFCFS, true, true)},
		{"JiT", mk(visibility.SchedJiT, true, true)},
		{"JiT-leaseoff", mk(visibility.SchedJiT, false, false)},
	}
}

func goldenScenarios() map[string]func(seed int64) workload.Spec {
	return map[string]func(seed int64) workload.Spec{
		"morning": workload.Morning,
		"party":   workload.Party,
		"factory": func(seed int64) workload.Spec {
			p := workload.DefaultFactoryParams()
			p.Stages = 8
			p.Seed = seed
			return workload.Factory(p)
		},
	}
}

// runGoldenTrace replays a workload spec against one controller configuration
// and returns the full trace plus the final fingerprints.
func runGoldenTrace(spec workload.Spec, opts visibility.Options, seed int64) goldenEntry {
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(spec.Registry())
	env := visibility.NewSimEnv(s, fleet)
	if spec.JitterMax > 0 {
		rng := stats.NewRNG(seed)
		env.Jitter = func() time.Duration { return rng.UniformDuration(0, spec.JitterMax) }
	}

	epoch := s.Now()
	var trace strings.Builder
	opts.CheckInvariants = true
	opts.Observer = func(e visibility.Event) {
		fmt.Fprintf(&trace, "t=%v %v r=%d d=%s st=%s detail=%q\n",
			e.Time.Sub(epoch), e.Kind, e.Routine, e.Device, e.State, e.Detail)
	}

	ctrl := visibility.New(env, fleet.Snapshot(), opts)
	table := ctrl.(interface{ Table() *lineage.Table }).Table()

	for _, sub := range spec.Submissions {
		r := sub.Routine
		s.Post(sub.At, func() {
			ctrl.Submit(r)
			// Snapshot the lineage table right after the placement decision:
			// this pins down gap choices, lease insertions and append
			// fallbacks, not just their downstream effects.
			trace.WriteString("table after submit:\n")
			trace.WriteString(table.String())
		})
	}
	for _, f := range spec.Failures {
		f := f
		s.Post(f.At, func() {
			if f.Restart {
				_ = fleet.Restore(f.Device)
				ctrl.NotifyRestart(f.Device)
			} else {
				_ = fleet.Fail(f.Device)
				ctrl.NotifyFailure(f.Device)
			}
		})
	}
	s.Run()

	var serial []string
	for _, n := range ctrl.Serialization() {
		serial = append(serial, n.String())
	}
	committed := ctrl.CommittedStates()
	devs := make([]string, 0, len(committed))
	for d := range committed {
		devs = append(devs, string(d))
	}
	sort.Strings(devs)
	var cb strings.Builder
	for _, d := range devs {
		fmt.Fprintf(&cb, "%s=%s ", d, committed[device.ID(d)])
	}

	text := trace.String()
	return goldenEntry{
		TraceSHA:      fmt.Sprintf("%x", sha256.Sum256([]byte(text))),
		Lines:         strings.Count(text, "\n"),
		Serialization: strings.Join(serial, " "),
		Committed:     strings.TrimSpace(cb.String()),
	}
}

func TestGoldenScheduling(t *testing.T) {
	got := make(map[string]goldenEntry)
	for name, gen := range goldenScenarios() {
		for _, cfg := range goldenConfigs() {
			for seed := int64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/%s/seed=%d", name, cfg.name, seed)
				got[key] = runGoldenTrace(gen(seed), cfg.opts, seed)
			}
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}

	if len(got) != len(want) {
		t.Errorf("golden suite shape changed: got %d entries, golden has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden file", k)
			continue
		}
		g := got[k]
		if g.Serialization != w.Serialization {
			t.Errorf("%s: serialization order diverged\n got: %s\nwant: %s", k, g.Serialization, w.Serialization)
		}
		if g.Committed != w.Committed {
			t.Errorf("%s: committed states diverged\n got: %s\nwant: %s", k, g.Committed, w.Committed)
		}
		if g.TraceSHA != w.TraceSHA {
			t.Errorf("%s: event/lineage trace diverged (got %d lines sha %s, want %d lines sha %s)",
				k, g.Lines, g.TraceSHA[:12], w.Lines, w.TraceSHA[:12])
		}
	}
}

// TestGoldenDeterminism guards the golden harness itself: the same seed must
// produce the same trace twice, otherwise digest comparisons are meaningless.
func TestGoldenDeterminism(t *testing.T) {
	spec := workload.Morning(7)
	opts := visibility.DefaultOptions(visibility.EV)
	a := runGoldenTrace(spec, opts, 7)
	b := runGoldenTrace(workload.Morning(7), opts, 7)
	if a != b {
		t.Fatalf("same seed produced different traces: %+v vs %+v", a, b)
	}
}
