package runtime

import (
	"errors"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// Tests for the owned-submit contract: SubmitOwned hands the routine itself
// to the controller, but only once the loop applies the submission. Every
// refusal — load shed, closed runtime, crashed loop — must leave the
// routine untouched, because Manager.mutate resubmits it after ErrClosed.

// assertUnstamped fails if a refused owned submission stamped r.
func assertUnstamped(t *testing.T, how string, r *routine.Routine) {
	t.Helper()
	if r.ID != routine.None || !r.Submitted.IsZero() {
		t.Errorf("%s: refused routine stamped with ID %d at %v", how, r.ID, r.Submitted)
	}
}

func TestSubmitOwnedKeepsTheRoutine(t *testing.T) {
	rt := newVirtual(t, Config{}, 2)
	r := plugRoutine("owned", device.On, 0, 1)
	rid, err := rt.SubmitOwned(r)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := rt.Snapshot().ResultRef(rid)
	if !ok || res.Routine != r {
		t.Fatalf("result %d holds routine %p, want the submitted %p", rid, res.Routine, r)
	}
	if r.ID != rid || !r.Submitted.Equal(res.Submitted) {
		t.Fatalf("owned routine stamped ID %d at %v, want %d at %v", r.ID, r.Submitted, rid, res.Submitted)
	}
	if !res.Status.Finished() {
		t.Fatalf("owned routine = %s, want finished on the virtual clock", res.Status)
	}
}

func TestRefusedSubmitOwnedLeavesRoutineUnstamped(t *testing.T) {
	t.Run("overloaded", func(t *testing.T) {
		const depth = 4
		rt := newVirtual(t, Config{MailboxDepth: depth}, 2)
		resume, wg := fillMailbox(t, rt, depth)
		r := plugRoutine("shed", device.On, 0)
		_, err := rt.SubmitOwned(r)
		resume()
		wg.Wait()
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("SubmitOwned on a full mailbox = %v, want ErrOverloaded", err)
		}
		assertUnstamped(t, "overloaded", r)
	})
	t.Run("closed", func(t *testing.T) {
		rt := newVirtual(t, Config{}, 2)
		rt.Close()
		r := plugRoutine("late", device.On, 0)
		if _, err := rt.SubmitOwned(r); !errors.Is(err, ErrClosed) {
			t.Fatalf("SubmitOwned after Close = %v, want ErrClosed", err)
		}
		assertUnstamped(t, "closed", r)
	})
	t.Run("crash-drained", func(t *testing.T) {
		rt := newVirtual(t, Config{}, 2)
		resume, err := rt.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		r := plugRoutine("drained", device.On, 0)
		answered := make(chan error, 1)
		go func() {
			_, err := rt.SubmitOwned(r)
			answered <- err
		}()
		waitFor(t, "the submission to queue", func() bool { return rt.Mailbox().Depth == 1 })
		crashed := make(chan struct{})
		go func() {
			rt.Crash()
			close(crashed)
		}()
		waitFor(t, "the crash flag", rt.crashed.Load)
		resume() // the loop leaves the parked batch and drains the queued submit
		<-crashed
		if err := <-answered; !errors.Is(err, ErrClosed) {
			t.Fatalf("crash-drained SubmitOwned = %v, want ErrClosed", err)
		}
		assertUnstamped(t, "crash-drained", r)
	})
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecurringTriggerSubmitsFreshCopies: a trigger submits the copy the
// routine bank hands out, as owned. Every firing must therefore hold its own
// routine stamped with its own ID, and the bank's definition stays a
// definition: never stamped, however often it fires.
func TestRecurringTriggerSubmitsFreshCopies(t *testing.T) {
	rt, err := NewSim(Config{Model: visibility.EV, Clock: ClockPaced}, device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	def := routine.New("tick", routine.Command{Device: "plug-0", Target: device.On, Duration: time.Millisecond})
	if err := rt.StoreRoutine(def); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ScheduleEvery("tick", time.Second); err != nil {
		t.Fatal(err)
	}
	if !rt.PumpIfDue(time.Now().Add(3500 * time.Millisecond)) {
		t.Fatal("nothing due to pump")
	}
	rt.Triggers() // a loop round trip: the pump before it has been applied and published

	results := rt.Results()
	if len(results) < 3 {
		t.Fatalf("recurring trigger fired %d times, want at least 3", len(results))
	}
	seen := make(map[*routine.Routine]routine.ID, len(results))
	for _, res := range results {
		if res.Routine == nil || res.Routine.ID != res.ID {
			t.Fatalf("result %d holds routine %+v, want one stamped with its ID", res.ID, res.Routine)
		}
		if other, dup := seen[res.Routine]; dup {
			t.Fatalf("results %d and %d share one routine", other, res.ID)
		}
		seen[res.Routine] = res.ID
	}
	stored, ok := rt.Bank().Get("tick")
	if !ok {
		t.Fatal("stored routine vanished")
	}
	if stored.ID != routine.None || !stored.Submitted.IsZero() {
		t.Fatalf("bank definition stamped with ID %d at %v", stored.ID, stored.Submitted)
	}
	if def.ID != routine.None || !def.Submitted.IsZero() {
		t.Fatalf("caller's definition stamped with ID %d at %v", def.ID, def.Submitted)
	}
}

// TestDirtyPublishIsOneObject: with no event log and nothing changed in
// the controller since the last export, a publish costs exactly the
// Snapshot — its StateExport rides inside it, and the committed states,
// result chunks and fleet states are shared with the previous snapshot.
func TestDirtyPublishIsOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves objects to the heap")
	}
	rt := newVirtual(t, Config{EventLog: 0}, 2)
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(plugRoutine("warm", device.On, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	resume, err := rt.Suspend() // park the loop: the test owns the controller now
	if err != nil {
		t.Fatal(err)
	}
	defer resume()
	prev := rt.Snapshot()
	allocs := testing.AllocsPerRun(100, func() {
		rt.snapDirty = true
		rt.publish(false)
	})
	if rt.Snapshot() == prev {
		t.Fatal("a dirty publish published nothing")
	}
	if allocs != 1 {
		t.Fatalf("one dirty publish allocates %.1f objects, want exactly 1 (the Snapshot)", allocs)
	}
}
