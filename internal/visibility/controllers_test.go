package visibility

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/stats"
)

func TestParseModelAndScheduler(t *testing.T) {
	cases := map[string]Model{"wv": WV, "GSV": GSV, "s-gsv": SGSV, "psv": PSV, "Eventual": EV}
	for in, want := range cases {
		got, err := ParseModel(in)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Error("ParseModel(nope) should fail")
	}
	scheds := map[string]SchedulerKind{"fcfs": SchedFCFS, "JiT": SchedJiT, "timeline": SchedTL}
	for in, want := range scheds {
		got, err := ParseScheduler(in)
		if err != nil || got != want {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScheduler("nope"); err == nil {
		t.Error("ParseScheduler(nope) should fail")
	}
}

func TestModelStrings(t *testing.T) {
	for _, m := range Models {
		if m.String() == "" || len(m.String()) > 6 {
			t.Errorf("Model %d has odd String %q", int(m), m.String())
		}
	}
	if EV.String() != "EV" || SGSV.String() != "S-GSV" {
		t.Errorf("unexpected model names: %s %s", EV, SGSV)
	}
}

// --- single-routine sanity across every model --------------------------------

func TestSingleRoutineCompletesUnderEveryModel(t *testing.T) {
	for _, m := range Models {
		for _, sched := range []SchedulerKind{SchedTL, SchedFCFS, SchedJiT} {
			if m != EV && sched != SchedTL {
				continue // scheduler only matters for EV
			}
			opts := DefaultOptions(m)
			opts.Scheduler = sched
			name := m.String() + "/" + sched.String()
			t.Run(name, func(t *testing.T) {
				h := newTestHome(t, opts, homeDevices()...)
				h.submitAt(0, coolingRoutine())
				h.run()
				h.wantStatus(1, StatusCommitted)
				h.wantState("window", device.Closed)
				h.wantState("ac", device.On)
				res := h.result(1)
				if res.Executed != 2 {
					t.Errorf("Executed = %d, want 2", res.Executed)
				}
				if res.Latency() <= 0 {
					t.Errorf("latency = %v, want > 0", res.Latency())
				}
				if got := h.ctrl.CommittedStates()["ac"]; got != device.On {
					t.Errorf("committed ac state = %q, want ON", got)
				}
			})
		}
	}
}

// --- GSV: one routine at a time ----------------------------------------------

func TestGSVSerializesEverything(t *testing.T) {
	h := newTestHome(t, DefaultOptions(GSV), homeDevices()...)
	h.submitAt(0, dishwashRoutine(40*time.Minute))
	h.submitAt(0, dryerRoutine(20*time.Minute))
	elapsed := h.run()

	h.wantStatus(1, StatusCommitted)
	h.wantStatus(2, StatusCommitted)
	// Disjoint devices, but GSV still serializes: total time is at least the
	// sum of both run times (~60 minutes).
	if elapsed < 60*time.Minute {
		t.Errorf("GSV elapsed = %v, want >= 60m (serial execution)", elapsed)
	}
	// The dryer routine waits for the dishwasher routine to finish.
	if got := h.result(2).Latency(); got < 60*time.Minute {
		t.Errorf("dryer routine latency = %v, want >= 60m under GSV", got)
	}
}

func TestPSVRunsDisjointRoutinesConcurrently(t *testing.T) {
	h := newTestHome(t, DefaultOptions(PSV), homeDevices()...)
	h.submitAt(0, dishwashRoutine(40*time.Minute))
	h.submitAt(0, dryerRoutine(20*time.Minute))
	elapsed := h.run()

	h.wantStatus(1, StatusCommitted)
	h.wantStatus(2, StatusCommitted)
	// PSV overlaps the two non-conflicting routines: ~40 minutes total.
	if elapsed > 45*time.Minute {
		t.Errorf("PSV elapsed = %v, want ~40m (concurrent execution)", elapsed)
	}
	if got := h.result(2).Latency(); got > 25*time.Minute {
		t.Errorf("dryer latency = %v, want ~20m under PSV", got)
	}
}

func TestPSVSerializesConflictingRoutines(t *testing.T) {
	h := newTestHome(t, DefaultOptions(PSV), homeDevices()...)
	h.submitAt(0, breakfastRoutine("user-1"))
	h.submitAt(0, breakfastRoutine("user-2"))
	elapsed := h.run()

	h.wantStatus(1, StatusCommitted)
	h.wantStatus(2, StatusCommitted)
	// Both routines touch coffee and pancake: PSV runs them back-to-back
	// (~18 minutes), like GSV would.
	if elapsed < 18*time.Minute {
		t.Errorf("PSV elapsed = %v, want >= 18m for conflicting routines", elapsed)
	}
}

// --- EV: pipelining of conflicting routines (the breakfast example) ----------

func TestEVPipelinesConflictingRoutines(t *testing.T) {
	run := func(m Model) time.Duration {
		h := newTestHome(t, DefaultOptions(m), homeDevices()...)
		h.submitAt(0, breakfastRoutine("user-1"))
		h.submitAt(0, breakfastRoutine("user-2"))
		elapsed := h.run()
		h.wantStatus(1, StatusCommitted)
		h.wantStatus(2, StatusCommitted)
		h.wantState("coffee", device.Off)
		h.wantState("pancake", device.Off)
		return elapsed
	}
	evTime := run(EV)
	gsvTime := run(GSV)

	// EV pipelines the two breakfasts (one user's pancakes overlap the other
	// user's coffee): ~14 minutes vs ~18 minutes serial.
	if evTime >= gsvTime {
		t.Errorf("EV elapsed %v should beat GSV elapsed %v", evTime, gsvTime)
	}
	if evTime > 15*time.Minute {
		t.Errorf("EV elapsed = %v, want ~14m (pipelined)", evTime)
	}
	if gsvTime < 18*time.Minute {
		t.Errorf("GSV elapsed = %v, want >= 18m (serialized)", gsvTime)
	}
}

func TestEVEndStateSeriallyEquivalent(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	initial := h.fleet.Snapshot()
	h.submitAt(0, coolingRoutine())
	h.submitAt(10*time.Millisecond, routine.New("warm",
		routine.Command{Device: "window", Target: device.Open},
		routine.Command{Device: "ac", Target: device.Off}))
	h.submitAt(20*time.Millisecond, routine.New("lights-on",
		routine.Command{Device: "light-1", Target: device.On},
		routine.Command{Device: "light-2", Target: device.On}))
	h.run()
	h.finishedAll()
	if !h.endStateSeriallyEquivalent(initial) {
		t.Fatalf("EV end state not serially equivalent:\n%v", h.fleet.Snapshot())
	}
}

// --- WV: fast but incongruent (Fig 1) ----------------------------------------

func TestWVProducesIncongruentEndStates(t *testing.T) {
	// Two conflicting routines (all ON vs all OFF) over 8 plugs, the second
	// starting shortly after the first, with jittery device latencies — the
	// Fig 1 experiment. WV must yield some incongruent end states across
	// trials; EV must yield none.
	const devices = 8
	const trials = 40
	incongruent := func(m Model) int {
		bad := 0
		rng := stats.NewRNG(42)
		for trial := 0; trial < trials; trial++ {
			h := newTestHome(t, DefaultOptions(m), plugDevices(devices)...)
			h.env.Jitter = func() time.Duration {
				return time.Duration(rng.Intn(80)) * time.Millisecond
			}
			initial := h.fleet.Snapshot()
			h.submitAt(0, allLightsRoutine("all-on", devices, device.On))
			h.submitAt(50*time.Millisecond, allLightsRoutine("all-off", devices, device.Off))
			h.run()
			h.finishedAll()
			if !h.endStateSeriallyEquivalent(initial) {
				bad++
			}
		}
		return bad
	}

	if badWV := incongruent(WV); badWV == 0 {
		t.Errorf("WV produced 0 incongruent end states over %d jittery trials; expected some", trials)
	}
	if badEV := incongruent(EV); badEV != 0 {
		t.Errorf("EV produced %d incongruent end states, want 0", badEV)
	}
}

func TestWVIsFastButIgnoresFailures(t *testing.T) {
	h := newTestHome(t, DefaultOptions(WV), homeDevices()...)
	h.failAt(0, "ac")
	h.submitAt(10*time.Millisecond, coolingRoutine())
	h.run()

	// WV always "completes", even though the AC command failed: the window is
	// closed but the AC stayed off — the incongruent outcome of §1.
	h.wantStatus(1, StatusCommitted)
	h.wantState("window", device.Closed)
	h.wantState("ac", device.Off)
	res := h.result(1)
	if res.Executed != 1 || res.BestEffortFailures != 1 {
		t.Errorf("WV executed=%d failures=%d, want 1 and 1", res.Executed, res.BestEffortFailures)
	}
}

// --- parallelism / active counts ----------------------------------------------

func TestActiveCountTracksConcurrency(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	h.submitAt(0, dishwashRoutine(10*time.Minute))
	h.submitAt(0, dryerRoutine(10*time.Minute))
	h.sim.Post(time.Minute, func() {
		if got := h.ctrl.ActiveCount(); got != 2 {
			t.Errorf("ActiveCount after 1m = %d, want 2", got)
		}
		if got := h.ctrl.PendingCount(); got != 2 {
			t.Errorf("PendingCount after 1m = %d, want 2", got)
		}
	})
	h.run()
	if got := h.ctrl.ActiveCount(); got != 0 {
		t.Errorf("ActiveCount at end = %d, want 0", got)
	}
	if got := h.ctrl.PendingCount(); got != 0 {
		t.Errorf("PendingCount at end = %d, want 0", got)
	}
}

// --- serialization order -------------------------------------------------------

func TestSerializationContainsCommittedRoutines(t *testing.T) {
	for _, m := range Models {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.submitAt(0, coolingRoutine())
			h.submitAt(5*time.Millisecond, leaveHomeRoutine())
			h.run()
			h.finishedAll()
			nodes := h.ctrl.Serialization()
			routines := 0
			for _, n := range nodes {
				if n.Kind == order.KindRoutine {
					routines++
				}
			}
			if routines != 2 {
				t.Errorf("%s serialization contains %d routines, want 2 (%v)", m, routines, nodes)
			}
		})
	}
}

// --- conditional commands ------------------------------------------------------

func TestConditionalCommandSkipped(t *testing.T) {
	for _, m := range []Model{WV, GSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			// Turn the AC on only if the window is closed; the window starts open.
			r := routine.New("ac-if-closed",
				routine.Command{
					Device: "ac", Target: device.On,
					Condition: &routine.Condition{Device: "window", Equals: device.Closed},
				},
				routine.Command{Device: "light-1", Target: device.On},
			)
			h.submitAt(0, r)
			h.run()
			h.wantStatus(1, StatusCommitted)
			h.wantState("ac", device.Off)
			h.wantState("light-1", device.On)
			if got := h.result(1).Skipped; got != 1 {
				t.Errorf("Skipped = %d, want 1", got)
			}
		})
	}
}

func TestConditionalCommandExecutesWhenMet(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	r := routine.New("close-then-cool",
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{
			Device: "ac", Target: device.On,
			Condition: &routine.Condition{Device: "window", Equals: device.Closed},
		},
	)
	h.submitAt(0, r)
	h.run()
	h.wantStatus(1, StatusCommitted)
	h.wantState("ac", device.On)
	if got := h.result(1).Skipped; got != 0 {
		t.Errorf("Skipped = %d, want 0", got)
	}
}
