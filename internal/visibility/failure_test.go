package visibility

// Failure-handling tests: the failure/restart serialization rules of §3
// (Fig 3 and Table 2), must vs best-effort commands (§2.2), and abort
// rollbacks (§4.3).

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// The cooling routine has two short commands: window:CLOSE completes at
// ~100ms and ac:ON completes at ~200ms of virtual time (submission at t=0).
// The scenarios below place the window failure (and optional restart) at the
// six interesting instants of Fig 3 and assert the per-model verdicts from
// §3's worked example.

type failureCase struct {
	name      string
	failAt    time.Duration
	restartAt time.Duration // zero = no restart
	submitAt  time.Duration
	want      map[Model]RoutineStatus
}

func failureCases() []failureCase {
	committed := StatusCommitted
	aborted := StatusAborted
	return []failureCase{
		{
			// Failure and restart both strictly before the routine starts:
			// every model serializes them before the routine and executes it.
			name:      "fail+restart before routine",
			failAt:    10 * time.Millisecond,
			restartAt: 40 * time.Millisecond,
			submitAt:  100 * time.Millisecond,
			want:      map[Model]RoutineStatus{GSV: committed, SGSV: committed, PSV: committed, EV: committed},
		},
		{
			// Failure before the routine's first command with no restart: the
			// window command itself fails, so the routine aborts everywhere.
			name:     "fail before first command, no restart",
			failAt:   10 * time.Millisecond,
			submitAt: 100 * time.Millisecond,
			want:     map[Model]RoutineStatus{GSV: aborted, SGSV: aborted, PSV: aborted, EV: aborted},
		},
		{
			// Failure while the window command is executing (case 4 of EV):
			// nobody can serialize around it; abort everywhere.
			name:     "fail during window command",
			failAt:   50 * time.Millisecond,
			submitAt: 0,
			want:     map[Model]RoutineStatus{GSV: aborted, SGSV: aborted, PSV: aborted, EV: aborted},
		},
		{
			// Failure after the window's last touch, still failed at finish:
			// GSV aborts (failure during execution), PSV aborts (rule 3*:
			// not recovered at the finish point), EV commits (failure is
			// serialized after the routine).
			name:     "fail after window touch, still down at finish",
			failAt:   150 * time.Millisecond,
			submitAt: 0,
			want:     map[Model]RoutineStatus{GSV: aborted, SGSV: aborted, PSV: aborted, EV: committed},
		},
		{
			// Failure after the window's last touch but recovered before the
			// finish point: GSV still aborts, PSV and EV commit.
			name:      "fail after window touch, recovered before finish",
			failAt:    110 * time.Millisecond,
			restartAt: 150 * time.Millisecond,
			submitAt:  0,
			want:      map[Model]RoutineStatus{GSV: aborted, SGSV: aborted, PSV: committed, EV: committed},
		},
		{
			// Failure of a device the routine never touches: GSV commits
			// (loose GSV only aborts for touched devices) but S-GSV aborts.
			name:     "fail unrelated device during execution",
			failAt:   50 * time.Millisecond,
			submitAt: 0,
			want:     map[Model]RoutineStatus{GSV: committed, SGSV: aborted, PSV: committed, EV: committed},
		},
	}
}

func TestFailureSerializationMatrix(t *testing.T) {
	for _, tc := range failureCases() {
		failDev := device.ID("window")
		if tc.name == "fail unrelated device during execution" {
			failDev = "light-1"
		}
		for _, m := range []Model{GSV, SGSV, PSV, EV} {
			want := tc.want[m]
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				h := newTestHome(t, DefaultOptions(m), homeDevices()...)
				h.submitAt(tc.submitAt, coolingRoutine())
				h.failAt(tc.failAt, failDev)
				if tc.restartAt > 0 {
					h.restoreAt(tc.restartAt, failDev)
				}
				h.run()
				h.wantStatus(1, want)

				if want == StatusCommitted && failDev == "window" {
					// A committed cooling routine must have closed the window
					// and switched the AC on (serial equivalence of §1).
					h.wantState("window", device.Closed)
					h.wantState("ac", device.On)
				}
			})
		}
	}
}

func TestWVIgnoresFailuresEntirely(t *testing.T) {
	for _, tc := range failureCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(WV), homeDevices()...)
			h.submitAt(tc.submitAt, coolingRoutine())
			h.failAt(tc.failAt, "window")
			if tc.restartAt > 0 {
				h.restoreAt(tc.restartAt, "window")
			}
			h.run()
			// Weak visibility never aborts anything.
			h.wantStatus(1, StatusCommitted)
		})
	}
}

// --- must vs best-effort (§2.2, Table 2 "leave home") -------------------------

func TestBestEffortCommandFailureDoesNotAbort(t *testing.T) {
	for _, m := range []Model{GSV, SGSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.failAt(0, "light-1") // the best-effort light is unresponsive
			h.submitAt(10*time.Millisecond, leaveHomeRoutine())
			h.run()

			// The door must still lock even though a best-effort light failed.
			h.wantStatus(1, StatusCommitted)
			h.wantState("door", device.Locked)
			res := h.result(1)
			if res.BestEffortFailures != 1 {
				t.Errorf("BestEffortFailures = %d, want 1", res.BestEffortFailures)
			}
		})
	}
}

func TestMustCommandFailureAborts(t *testing.T) {
	for _, m := range []Model{GSV, SGSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.failAt(0, "door") // the must-lock door is unresponsive
			h.submitAt(10*time.Millisecond, leaveHomeRoutine())
			h.run()

			h.wantStatus(1, StatusAborted)
			res := h.result(1)
			if res.AbortReason == "" {
				t.Error("aborted routine should carry an abort reason")
			}
			// The best-effort lights that were switched off must be rolled
			// back (restored to their pre-routine state).
			h.wantState("light-1", device.Off)
			h.wantState("light-2", device.Off)
		})
	}
}

// --- rollback behaviour ---------------------------------------------------------

func TestAbortRollsBackExecutedCommands(t *testing.T) {
	for _, m := range []Model{GSV, SGSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			// Window closes successfully, then the AC turns out to be dead:
			// the routine aborts and the window must be re-opened.
			h.failAt(0, "ac")
			h.submitAt(10*time.Millisecond, coolingRoutine())
			h.run()

			h.wantStatus(1, StatusAborted)
			h.wantState("window", device.Open)
			res := h.result(1)
			if res.RolledBack == 0 {
				t.Errorf("RolledBack = 0, want > 0 (the window close must be undone)")
			}
			if h.countEvents(EvRolledBack) == 0 {
				t.Error("expected at least one rolled-back event")
			}
		})
	}
}

func TestEVAbortsEarlierThanPSV(t *testing.T) {
	// The window fails right after its command; the routine has a long AC
	// command afterwards. EV aborts routines affected by mid-execution
	// failures as soon as the failure is detected; PSV waits until the finish
	// point (§7.4: "EV aborts affected routines earlier rather than later").
	longCooling := routine.New("cooling-long",
		routine.Command{Device: "ac", Target: device.On, Duration: 10 * time.Minute},
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{Device: "light-1", Target: device.On},
	)
	finishTime := func(m Model) time.Duration {
		h := newTestHome(t, DefaultOptions(m), homeDevices()...)
		h.submitAt(0, longCooling)
		// The AC fails mid-way through its long command.
		h.failAt(1*time.Minute, "ac")
		h.run()
		h.wantStatus(1, StatusAborted)
		return h.result(1).Finished.Sub(h.result(1).Submitted)
	}

	evFinish := finishTime(EV)
	psvFinish := finishTime(PSV)
	if evFinish >= psvFinish {
		t.Errorf("EV abort time %v should be earlier than PSV abort time %v", evFinish, psvFinish)
	}
}

func TestSGSVAbortsOnUnrelatedFailureGSVDoesNot(t *testing.T) {
	// The manufacturing-pipeline scenario of Table 2: under S-GSV any stage
	// failure stops the running routine, even when untouched by it.
	run := func(m Model) RoutineStatus {
		h := newTestHome(t, DefaultOptions(m), homeDevices()...)
		h.submitAt(0, dishwashRoutine(10*time.Minute))
		h.failAt(1*time.Minute, "light-2")
		h.run()
		return h.result(1).Status
	}
	if got := run(GSV); got != StatusCommitted {
		t.Errorf("GSV with unrelated failure = %v, want committed", got)
	}
	if got := run(SGSV); got != StatusAborted {
		t.Errorf("S-GSV with unrelated failure = %v, want aborted", got)
	}
}

func TestFailureAndRestartAppearInSerialization(t *testing.T) {
	for _, m := range []Model{GSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.submitAt(0, coolingRoutine())
			h.failAt(500*time.Millisecond, "light-1")
			h.restoreAt(600*time.Millisecond, "light-1")
			h.run()

			var haveFail, haveRestart bool
			for _, n := range h.ctrl.Serialization() {
				switch n.String() {
				case "F[light-1]#0":
					haveFail = true
				case "Re[light-1]#0":
					haveRestart = true
				}
			}
			if !haveFail || !haveRestart {
				t.Errorf("%s serialization missing failure/restart events: %v", m, h.ctrl.Serialization())
			}
		})
	}
}

func TestEVFailureAfterLastTouchSerializedAfterRoutine(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	h.submitAt(0, coolingRoutine())
	// Window fails after its command completed (~100ms) but before the
	// routine finishes (~200ms): EV serializes the failure after the routine.
	h.failAt(150*time.Millisecond, "window")
	h.run()

	h.wantStatus(1, StatusCommitted)
	nodes := h.ctrl.Serialization()
	posRoutine, posFailure := -1, -1
	for i, n := range nodes {
		switch n.String() {
		case "R1":
			posRoutine = i
		case "F[window]#0":
			posFailure = i
		}
	}
	if posRoutine == -1 || posFailure == -1 {
		t.Fatalf("serialization missing nodes: %v", nodes)
	}
	if posRoutine > posFailure {
		t.Errorf("routine serialized after its trailing failure event: %v", nodes)
	}
}

func TestRestartedDeviceUsableByLaterRoutines(t *testing.T) {
	for _, m := range []Model{GSV, PSV, EV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.failAt(0, "window")
			h.restoreAt(2*time.Second, "window")
			// Submitted well after the restart: must run normally.
			h.submitAt(3*time.Second, coolingRoutine())
			h.run()
			h.wantStatus(1, StatusCommitted)
			h.wantState("window", device.Closed)
		})
	}
}

func TestMultipleFailuresAbortOnlyAffectedRoutinesUnderEV(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	// Routine 1 uses the dishwasher (long); routine 2 uses the dryer (long).
	h.submitAt(0, dishwashRoutine(20*time.Minute))
	h.submitAt(0, dryerRoutine(20*time.Minute))
	// The dryer dies mid-run; the dishwasher routine must be unaffected.
	h.failAt(5*time.Minute, "dryer")
	h.run()

	h.wantStatus(1, StatusCommitted)
	h.wantStatus(2, StatusAborted)
}

// TestFailureAfterPreloadSkipsHistory: a failure walks the routines a
// controller has runs for; recovered (preloaded) history has none, and
// every model must skip it rather than dereference a missing run.
func TestFailureAfterPreloadSkipsHistory(t *testing.T) {
	for _, m := range []Model{GSV, SGSV, PSV, EV, WV} {
		t.Run(m.String(), func(t *testing.T) {
			h := newTestHome(t, DefaultOptions(m), homeDevices()...)
			h.ctrl.Preload([]Result{
				{ID: 1, Routine: coolingRoutine(), Status: StatusCommitted},
				{ID: 2, Routine: coolingRoutine(), Status: StatusAborted},
			})
			h.submitAt(0, coolingRoutine())
			h.failAt(150*time.Millisecond, "window")
			h.restoreAt(300*time.Millisecond, "window")
			h.run()
			if res := h.result(3); !res.Status.Finished() {
				t.Fatalf("routine 3 is %v after the failure and restart", res.Status)
			}
		})
	}
}
