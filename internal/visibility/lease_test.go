package visibility

// Tests for lock-lease revocation (§4.1) and lineage-table hygiene after
// commits and aborts.

import (
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/lineage"
	"safehome/internal/routine"
)

// TestPreLeaseRevocationAbortsSlowDestination builds the starvation case the
// revocation timeout exists for: a routine is pre-leased a lock, gets stuck
// behind an unrelated long routine in the middle of its span, and the lease
// source ends up waiting. Once the source is blocked and the destination has
// exceeded its estimated span, the lease is revoked and the destination
// aborts; everything else commits.
func TestPreLeaseRevocationAbortsSlowDestination(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)

	// R1 occupies the coffee maker for 10 minutes.
	blocker := routine.New("blocker",
		routine.Command{Device: "coffee", Target: device.On, Duration: 10 * time.Minute},
		routine.Command{Device: "coffee", Target: device.Off})
	// R2 runs the dishwasher for 5 minutes and then needs light-1.
	long := routine.New("chores",
		routine.Command{Device: "dishwasher", Target: device.On, Duration: 5 * time.Minute},
		routine.Command{Device: "dishwasher", Target: device.Off},
		routine.Command{Device: "light-1", Target: device.On})
	// R3 takes light-1 (pre-leased from R2, whose access is far in the
	// future), then blocks on the coffee maker, stretching its hold on
	// light-1 way past the estimate.
	slow := routine.New("slow-guest",
		routine.Command{Device: "light-1", Target: device.On},
		routine.Command{Device: "coffee", Target: device.On},
		routine.Command{Device: "light-1", Target: device.Off})

	h.submitAt(0, blocker)
	h.submitAt(10*time.Millisecond, long)
	h.submitAt(20*time.Millisecond, slow)
	h.run()
	h.finishedAll()

	h.wantStatus(1, StatusCommitted)
	h.wantStatus(2, StatusCommitted)
	h.wantStatus(3, StatusAborted)
	if reason := h.result(3).AbortReason; !strings.Contains(reason, "revoked") {
		t.Errorf("slow guest abort reason = %q, want a lease revocation", reason)
	}
	// The revocation let the chores routine finish with its light.
	h.wantState("light-1", device.On)
	if !h.endStateSeriallyEquivalent(map[device.ID]device.State{
		"coffee": device.Off, "dishwasher": device.Off, "light-1": device.Off,
	}) {
		t.Errorf("end state not serially equivalent: %v", h.fleet.Snapshot())
	}
}

// TestNoRevocationWhenNobodyWaits checks the flip side: a pre-leased routine
// that exceeds its estimate but blocks no one keeps its lease and commits.
func TestNoRevocationWhenNobodyWaits(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)

	// R1 will touch light-1 only at the very end of a long run.
	long := routine.New("chores",
		routine.Command{Device: "dishwasher", Target: device.On, Duration: 30 * time.Minute},
		routine.Command{Device: "dishwasher", Target: device.Off},
		routine.Command{Device: "light-1", Target: device.On})
	// R2 is pre-leased light-1 and stretches (blocked on the coffee maker held
	// by R3 for 2 minutes) — but R1 does not need light-1 for 30 minutes, so
	// no revocation should fire.
	slow := routine.New("slow-guest",
		routine.Command{Device: "light-1", Target: device.On},
		routine.Command{Device: "coffee", Target: device.On},
		routine.Command{Device: "light-1", Target: device.Off})
	blocker := routine.New("short-blocker",
		routine.Command{Device: "coffee", Target: device.On, Duration: 2 * time.Minute},
		routine.Command{Device: "coffee", Target: device.Off})

	h.submitAt(0, long)
	h.submitAt(time.Millisecond, blocker)
	h.submitAt(2*time.Millisecond, slow)
	h.run()
	h.finishedAll()
	for id := routine.ID(1); id <= 3; id++ {
		h.wantStatus(id, StatusCommitted)
	}
}

// TestLineageTableEmptyAfterAllCommits checks commit compaction leaves no
// stale lock-accesses behind once every routine has finished.
func TestLineageTableEmptyAfterAllCommits(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	h.submitAt(0, breakfastRoutine("user-1"))
	h.submitAt(0, breakfastRoutine("user-2"))
	h.submitAt(time.Second, coolingRoutine())
	h.submitAt(2*time.Second, leaveHomeRoutine())
	h.run()
	h.finishedAll()

	ev := h.ctrl.(*evController)
	for _, d := range ev.Table().Devices() {
		if accs := ev.Table().Lineage(d).Accesses; len(accs) != 0 {
			t.Errorf("device %s still has %d lock-accesses after all routines finished: %v", d, len(accs), accs)
		}
	}
	// Committed states reflect the last writes.
	if got := ev.Table().Committed("door"); got != device.Locked {
		t.Errorf("committed door state = %q, want LOCKED", got)
	}
}

// TestLineageTableCleanAfterAbort checks an aborted routine leaves no
// lock-accesses or graph residue that would block later routines.
func TestLineageTableCleanAfterAbort(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	h.failAt(0, "ac")
	h.submitAt(10*time.Millisecond, coolingRoutine()) // aborts: ac is dead
	h.submitAt(20*time.Millisecond, routine.New("window-only",
		routine.Command{Device: "window", Target: device.Closed}))
	h.run()
	h.finishedAll()

	h.wantStatus(1, StatusAborted)
	h.wantStatus(2, StatusCommitted)
	ev := h.ctrl.(*evController)
	for _, d := range ev.Table().Devices() {
		for _, acc := range ev.Table().Lineage(d).Accesses {
			if acc.Routine == 1 {
				t.Errorf("aborted routine still present in %s lineage: %v", d, acc)
			}
		}
	}
	// The aborted routine must not appear in the serialization order (§3).
	for _, n := range h.ctrl.Serialization() {
		if n.String() == "R1" {
			t.Errorf("aborted routine appears in serialization order: %v", h.ctrl.Serialization())
		}
	}
}

// TestPostLeaseBlockedByDirtyRead verifies the §4.1 restriction: a routine
// that wrote a device does not hand the lock early to a successor that reads
// the device through a condition.
func TestPostLeaseBlockedByDirtyRead(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	// R1 closes the window, then runs the dishwasher for 10 minutes.
	writer := routine.New("close-and-wash",
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{Device: "dishwasher", Target: device.On, Duration: 10 * time.Minute},
		routine.Command{Device: "dishwasher", Target: device.Off})
	// R2 turns the AC on only if the window is closed — it reads the window.
	reader := routine.New("ac-if-closed",
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{
			Device: "ac", Target: device.On,
			Condition: &routine.Condition{Device: "window", Equals: device.Closed},
		})

	h.submitAt(0, writer)
	h.submitAt(time.Millisecond, reader)
	h.run()
	h.finishedAll()

	// The reader must wait for the writer to finish (no early hand-off of the
	// window lock), so its latency includes the 10-minute dishwasher cycle.
	if got := h.result(2).Latency(); got < 9*time.Minute {
		t.Errorf("reader latency = %v; dirty-read rule should delay it past the writer's finish", got)
	}
	h.wantStatus(2, StatusCommitted)
	h.wantState("ac", device.On)
}

// TestAccessStatusLifecycle spot-checks the Scheduled→Acquired→Released
// transitions through the controller's own lineage table.
func TestAccessStatusLifecycle(t *testing.T) {
	h := newTestHome(t, DefaultOptions(EV), homeDevices()...)
	ev := h.ctrl.(*evController)

	h.submitAt(0, dishwashRoutine(10*time.Minute))
	h.sim.Post(time.Minute, func() {
		st, ok := ev.Table().Status("dishwasher", 1)
		if !ok || st != lineage.Acquired {
			t.Errorf("mid-run dishwasher access status = %v (%v), want Acquired", st, ok)
		}
	})
	h.run()
	if got := len(ev.Table().Lineage("dishwasher").Accesses); got != 0 {
		t.Errorf("dishwasher lineage should be compacted after commit, has %d accesses", got)
	}
}
