package visibility

// Tests for sealing at quiescence (evController.sealIfQuiescent): the EV
// controller folds its precedence graph into the sealed prefix whenever no
// routine is open, and must schedule exactly as a controller that keeps the
// whole history in its graph.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/stats"
)

// evOf returns the EV controller behind a test home.
func evOf(h *testHome) *evController { return h.ctrl.(*evController) }

// TestRestartAfterSealedFailure: a device fails after the routine's last
// touch of it (case 3: the failure serializes after the routine), the
// routine commits and the controller seals with the failure inside the
// prefix, and only then does the device restart. The restart's edge from
// the now-sealed failure must not bring the failure back into the graph:
// F[window]#0 appears once, before Re[window]#0, exactly as on a
// controller that never seals.
func TestRestartAfterSealedFailure(t *testing.T) {
	run := func(unsealed bool) []order.Node {
		h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
		evOf(h).unsealed = unsealed
		h.submitAt(0, coolingRoutine())
		h.failAt(150*time.Millisecond, "window") // after window's last touch (~100ms)
		h.sim.Post(250*time.Millisecond, func() {
			// R1 committed at ~200ms: sealed, unless the oracle.
			if nodes, runs := evOf(h).Footprint(); !unsealed && (nodes != 0 || runs != 0) {
				t.Errorf("quiescent controller kept %d graph nodes and %d run slots", nodes, runs)
			}
		})
		h.restoreAt(300*time.Millisecond, "window")
		h.submitAt(400*time.Millisecond, coolingRoutine())
		h.run()
		h.wantStatus(1, StatusCommitted)
		h.wantStatus(2, StatusCommitted)
		return h.ctrl.Serialization()
	}
	got, want := run(false), run(true)
	if !slices.Equal(got, want) {
		t.Fatalf("sealed serialization %v, unsealed %v", got, want)
	}
	fail, restart := order.FailureNode("window", 0), order.RestartNode("window", 0)
	if n := count(got, fail); n != 1 {
		t.Fatalf("F[window]#0 appears %d times in %v", n, got)
	}
	if slices.Index(got, fail) > slices.Index(got, restart) {
		t.Fatalf("restart serialized before its failure: %v", got)
	}
}

func count(nodes []order.Node, n order.Node) int {
	c := 0
	for _, x := range nodes {
		if x == n {
			c++
		}
	}
	return c
}

// TestFailureVisitsOnlyOpenRuns: NotifyFailure and NotifyRestart walk the
// run slots, which used to hold a (nil) slot for every routine the home had
// run. After a long idle-between-routines history they hold only the
// routines opened since the controller was last quiescent.
func TestFailureVisitsOnlyOpenRuns(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	const history = 200
	for i := 0; i < history; i++ {
		h.submitAt(time.Duration(i)*time.Second, coolingRoutine())
	}
	open := time.Duration(history) * time.Second
	h.submitAt(open, dishwashRoutine(time.Minute))
	h.sim.Post(open+time.Second, func() {
		if nodes, runs := evOf(h).Footprint(); nodes != 1 || runs != 1 {
			t.Errorf("with one routine open after %d finished: %d graph nodes, %d run slots; want 1 and 1",
				history, nodes, runs)
		}
	})
	h.failAt(open+2*time.Second, "light-1")
	h.restoreAt(open+3*time.Second, "light-1")
	h.run()
	h.finishedAll()
	if got := len(h.ctrl.Serialization()); got != history+3 {
		t.Fatalf("serialization holds %d nodes, want %d routines and the failure/restart pair", got, history+3)
	}
}

// TestSealingKeepsEveryScheduleIdentical holds the sealing controller to
// one that never seals, under every scheduler: random routines (long and
// short commands, conditions, best-effort commands) arrive in bursts with
// idle gaps between them, so the controller goes quiescent and seals many
// times, while devices fail and restart throughout. The full event trace,
// every result and the serialization must be identical.
func TestSealingKeepsEveryScheduleIdentical(t *testing.T) {
	devs := plugDevices(5)
	for _, kind := range []SchedulerKind{SchedTL, SchedFCFS, SchedJiT} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				opts := DefaultOptions(EV)
				opts.Scheduler = kind
				oracle := sealWorkload(t, opts, devs, seed, true)
				sealed := sealWorkload(t, opts, devs, seed, false)
				if !slices.Equal(sealed.events, oracle.events) {
					t.Fatalf("event traces diverge: %d events sealed, %d unsealed\n sealed: %v\nunsealed: %v",
						len(sealed.events), len(oracle.events), sealed.events, oracle.events)
				}
				a, b := sealed.ctrl.Results(), oracle.ctrl.Results()
				for i := range a {
					a[i].Routine, b[i].Routine = nil, nil
				}
				if !slices.Equal(a, b) {
					t.Fatalf("results diverge:\n sealed: %+v\nunsealed: %+v", a, b)
				}
				if got, want := sealed.ctrl.Serialization(), oracle.ctrl.Serialization(); !slices.Equal(got, want) {
					t.Fatalf("serialization diverges:\n sealed: %v\nunsealed: %v", got, want)
				}
				if nodes, runs := evOf(sealed).Footprint(); nodes != 0 || runs != 0 {
					t.Fatalf("quiescent at the end, yet %d graph nodes and %d run slots are kept", nodes, runs)
				}
			})
		}
	}
}

// sealWorkload runs one generated workload and returns the drained home.
func sealWorkload(t *testing.T, opts Options, devs []device.Info, seed int64, unsealed bool) *testHome {
	t.Helper()
	rng := stats.NewRNG(seed)
	h := newTestHome(t, opts, devs...)
	evOf(h).unsealed = unsealed
	// The lineage-table invariant checker rejects some TL schedules in
	// which a routine names one device twice (two Acquired accesses on one
	// device), with or without sealing; the oracle here is the unsealed
	// controller.
	evOf(h).opts.CheckInvariants = false
	at := time.Duration(0)
	for burst := 0; burst < 15; burst++ {
		for i := rng.Intn(4) + 1; i > 0; i-- {
			h.submitAt(at, randomRoutine(rng, devs))
			at += time.Duration(rng.Intn(300)) * time.Millisecond
		}
		at += time.Duration(rng.Intn(10)+2) * time.Minute // idle: the burst drains
	}
	// Each device fails and restarts a few times over the run; a failure
	// may hit a burst or an idle gap.
	for _, d := range devs {
		down := time.Duration(0)
		for k := rng.Intn(3); k > 0; k-- {
			down += time.Duration(rng.Intn(int(at/time.Second/3))+1) * time.Second
			h.failAt(down, d.ID)
			down += time.Duration(rng.Intn(60)+1) * time.Second
			h.restoreAt(down, d.ID)
		}
	}
	h.run()
	h.finishedAll()
	return h
}

func randomRoutine(rng *stats.RNG, devs []device.Info) *routine.Routine {
	r := routine.New("random")
	for i := rng.Intn(4) + 1; i > 0; i-- {
		cmd := routine.Command{Device: devs[rng.Intn(len(devs))].ID, Target: device.On}
		if rng.Intn(2) == 0 {
			cmd.Target = device.Off
		}
		if rng.Intn(3) == 0 {
			cmd.Duration = time.Duration(rng.Intn(90)+1) * time.Second
		}
		cmd.BestEffort = rng.Intn(4) == 0
		if rng.Intn(5) == 0 {
			cmd.Condition = &routine.Condition{Device: devs[rng.Intn(len(devs))].ID, Equals: device.On}
		}
		r.Commands = append(r.Commands, cmd)
	}
	return r
}
