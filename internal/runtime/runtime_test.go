package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

func plugRoutine(name string, target device.State, plugs ...int) *routine.Routine {
	r := routine.New(name)
	for _, p := range plugs {
		r.Commands = append(r.Commands, routine.Command{
			Device:   device.ID(fmt.Sprintf("plug-%d", p)),
			Target:   target,
			Duration: time.Minute,
		})
	}
	return r
}

func newVirtual(t *testing.T, cfg Config, plugs int) *HomeRuntime {
	t.Helper()
	if cfg.Model == visibility.WV {
		cfg.Model = visibility.EV
	}
	rt, err := NewSim(cfg, device.Plugs(plugs))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestVirtualSubmitRunsToCompletion(t *testing.T) {
	rt := newVirtual(t, Config{}, 4)
	rid, err := rt.Submit(plugRoutine("morning", device.On, 0, 1, 2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, ok := rt.Result(rid)
	if !ok || res.Status != visibility.StatusCommitted {
		t.Fatalf("result = %+v, %v; want committed on return (virtual clock)", res, ok)
	}
	states := rt.DeviceStates()
	for _, p := range []device.ID{"plug-0", "plug-1", "plug-2"} {
		if states[p] != device.On {
			t.Errorf("%s = %q, want ON", p, states[p])
		}
	}
	if c := rt.Counts(); c.Routines != 1 || c.Pending != 0 {
		t.Errorf("Counts = %+v", c)
	}
}

func TestSubmitValidatesAgainstRegistry(t *testing.T) {
	rt := newVirtual(t, Config{}, 2)
	if _, err := rt.Submit(plugRoutine("ghost", device.On, 9)); err == nil {
		t.Fatal("routine naming an unknown device was accepted")
	}
}

func TestFailureInjectionRoundTrip(t *testing.T) {
	rt := newVirtual(t, Config{Model: visibility.SGSV}, 2)
	if err := rt.FailDevice("plug-0"); err != nil {
		t.Fatal(err)
	}
	rid, err := rt.Submit(plugRoutine("hit-failed", device.On, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := rt.Result(rid); res.Status != visibility.StatusAborted {
		t.Errorf("routine on failed device = %v, want aborted", res.Status)
	}
	if err := rt.RestoreDevice("plug-0"); err != nil {
		t.Fatal(err)
	}
	rid, err = rt.Submit(plugRoutine("after-restore", device.On, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := rt.Result(rid); res.Status != visibility.StatusCommitted {
		t.Errorf("post-restore routine = %v, want committed", res.Status)
	}
}

func TestCloseDrainsAndAnswersInline(t *testing.T) {
	rt, err := NewSim(Config{Model: visibility.EV, Clock: ClockPaced}, device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	// Paced clock: the submission is in flight (nothing pumps it) until
	// Close drains the simulator to quiescence.
	if err := rt.SubmitAfter(time.Millisecond, plugRoutine("drain", device.On, 0, 1)); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	results := rt.Results() // inline read on the quiesced state
	if len(results) != 1 || !results[0].Status.Finished() {
		t.Fatalf("results after Close = %+v, want one finished routine", results)
	}
	if _, err := rt.Submit(plugRoutine("late", device.On, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	rt.Close() // idempotent
}

func TestEventLogRecordsAndCaps(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 8}, 2)
	for i := 0; i < 10; i++ {
		if _, err := rt.Submit(plugRoutine("evgen", device.On, 0)); err != nil {
			t.Fatal(err)
		}
	}
	events := rt.Events()
	if len(events) == 0 || len(events) > 8 {
		t.Fatalf("event log length = %d, want (0, 8]", len(events))
	}
}

func TestObserverReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	kinds := make(map[visibility.EventKind]int)
	rt := newVirtual(t, Config{Observer: func(e visibility.Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	}}, 2)
	if _, err := rt.Submit(plugRoutine("obs", device.On, 0, 1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if kinds[visibility.EvSubmitted] != 1 || kinds[visibility.EvCommitted] != 1 {
		t.Errorf("observer saw %v, want one submitted and one committed", kinds)
	}
}

// --- backpressure ----------------------------------------------------------------

// fillMailbox parks the loop, then saturates the ring with concurrent
// submissions. It returns the resume function and a WaitGroup that joins the
// blocked submitters.
func fillMailbox(t *testing.T, rt *HomeRuntime, depth int) (resume func(), wg *sync.WaitGroup) {
	t.Helper()
	resume, err := rt.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	wg = &sync.WaitGroup{}
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Submit(plugRoutine("filler", device.On, 0)); err != nil {
				t.Errorf("admitted submit failed: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Mailbox().Depth < depth {
		if time.Now().After(deadline) {
			resume()
			t.Fatalf("mailbox depth = %d, never reached %d", rt.Mailbox().Depth, depth)
		}
		time.Sleep(time.Millisecond)
	}
	return resume, wg
}

func TestOverloadShedsAndRecovers(t *testing.T) {
	const depth = 8
	rt := newVirtual(t, Config{MailboxDepth: depth}, 2)

	resume, wg := fillMailbox(t, rt, depth)

	// The ring is full and the loop is parked: mutating ops are load-shed.
	if _, err := rt.Submit(plugRoutine("shed", device.On, 0)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Submit on full mailbox = %v, want ErrOverloaded", err)
	}
	// ...but an invalid routine still gets its validation error (it can
	// never succeed, so "back off and retry" would loop forever).
	if _, err := rt.Submit(plugRoutine("bad", device.On, 99)); err == nil || errors.Is(err, ErrOverloaded) {
		t.Errorf("invalid Submit under overload = %v, want a validation error", err)
	}
	if err := rt.FailDevice("plug-0"); !errors.Is(err, ErrOverloaded) {
		t.Errorf("FailDevice on full mailbox = %v, want ErrOverloaded", err)
	}
	mb := rt.Mailbox()
	if mb.Rejected != 2 {
		t.Errorf("rejected counter = %d, want 2", mb.Rejected)
	}
	if mb.Accepted != depth {
		t.Errorf("accepted counter = %d, want %d", mb.Accepted, depth)
	}
	if mb.Depth != depth || mb.Capacity != depth {
		t.Errorf("mailbox = %+v, want depth == capacity == %d", mb, depth)
	}

	// Drain: every admitted op completes and the runtime accepts again.
	resume()
	wg.Wait()
	rid, err := rt.Submit(plugRoutine("after-drain", device.On, 1))
	if err != nil {
		t.Fatalf("Submit after drain = %v, want accepted", err)
	}
	if res, _ := rt.Result(rid); res.Status != visibility.StatusCommitted {
		t.Errorf("post-drain routine = %v, want committed", res.Status)
	}
	if got := rt.Mailbox(); got.Accepted != depth+1 {
		t.Errorf("accepted counter after drain = %d, want %d", got.Accepted, depth+1)
	}
}

func TestBatchDrainPreservesOrder(t *testing.T) {
	// Park the loop, queue a full batch of submissions, release: all must be
	// applied, and in arrival order (routine IDs are assigned in op order).
	const depth = 16
	rt := newVirtual(t, Config{MailboxDepth: depth, Batch: depth}, 2)
	resume, wg := fillMailbox(t, rt, depth)
	resume()
	wg.Wait()
	results := rt.Results()
	if len(results) != depth {
		t.Fatalf("results = %d, want %d", len(results), depth)
	}
	for i, res := range results {
		if res.Status != visibility.StatusCommitted {
			t.Errorf("routine %d = %v, want committed", i, res.Status)
		}
		if int(res.ID) != i+1 {
			t.Errorf("result %d has ID %d, want %d (arrival order)", i, res.ID, i+1)
		}
	}
}

func TestPumpIfDueSkipsIdleHomes(t *testing.T) {
	rt, err := NewSim(Config{Model: visibility.EV, Clock: ClockPaced}, device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Nothing scheduled: no pump should be posted, ever.
	if rt.PumpIfDue(time.Now().Add(time.Hour)) {
		t.Error("PumpIfDue pumped an idle home")
	}

	// Schedule work 50ms out: due in the future, still no pump...
	if err := rt.SubmitAfter(50*time.Millisecond, plugRoutine("later", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	waitNextDue := time.Now().Add(2 * time.Second)
	for rt.nextDue.Load() == 0 {
		if time.Now().After(waitNextDue) {
			t.Fatal("runtime never published its next deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if rt.PumpIfDue(time.Now()) {
		t.Error("PumpIfDue pumped a home whose next event is in the future")
	}
	// ...but once the horizon passes the deadline, the home is pumped.
	if !rt.PumpIfDue(time.Now().Add(time.Second)) {
		t.Error("PumpIfDue skipped a home with a due event")
	}
}

func TestLiveCloseDrainsChainedCommands(t *testing.T) {
	// A wall-clock routine executes its commands one at a time: each
	// completion (delivered through the mailbox) chains the next Exec. Close
	// must wait out the whole cascade — both devices actuated, the routine
	// finished — not just the first in-flight command.
	reg := device.Plugs(2)
	fleet := device.NewFleet(reg)
	home, err := NewLive(Config{Model: visibility.EV}, reg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	r := routine.New("chain",
		routine.Command{Device: "plug-0", Target: device.On, Duration: 20 * time.Millisecond},
		routine.Command{Device: "plug-1", Target: device.On, Duration: 20 * time.Millisecond},
	)
	if _, err := home.Submit(r); err != nil {
		t.Fatal(err)
	}
	home.Close()

	results := home.Results()
	if len(results) != 1 || results[0].Status != visibility.StatusCommitted {
		t.Fatalf("results after Close = %+v, want one committed routine", results)
	}
	for _, p := range []device.ID{"plug-0", "plug-1"} {
		if st, _ := fleet.Status(p); st != device.On {
			t.Errorf("%s = %q after Close, want ON (cascade cut short)", p, st)
		}
	}
}

func TestRecurringTriggerRejectedOnVirtualClock(t *testing.T) {
	// On a virtual clock every pump runs the simulator to quiescence; a
	// self-re-arming trigger would make that loop non-terminating, so
	// ScheduleEvery must refuse. One-shot triggers are fine.
	rt := newVirtual(t, Config{}, 1)
	if err := rt.Bank().Store(plugRoutine("night", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ScheduleEvery("night", 10*time.Millisecond); err == nil {
		t.Error("ScheduleEvery on a virtual clock was accepted")
	}
	if _, err := rt.ScheduleAfter("night", 10*time.Millisecond); err != nil {
		t.Errorf("one-shot ScheduleAfter on a virtual clock = %v, want accepted", err)
	}
	// The next pump fires the one-shot trigger and terminates.
	if _, err := rt.Submit(plugRoutine("pump", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	if c := rt.Counts(); c.Routines != 2 {
		t.Errorf("routines after pump = %d, want 2 (submit + fired trigger)", c.Routines)
	}
}

func TestCloseStopsRecurringTriggerFeedingCascade(t *testing.T) {
	// A recurring trigger whose routine hold overlaps its interval keeps the
	// live env permanently busy; Close must stop the trigger scheduler
	// before quiescing or it would wait forever for an idle that never
	// comes.
	reg := device.Plugs(1)
	home, err := NewLive(Config{Model: visibility.EV}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	hold := routine.New("hold", routine.Command{
		Device: "plug-0", Target: device.On, Duration: 80 * time.Millisecond,
	})
	if err := home.Bank().Store(hold); err != nil {
		t.Fatal(err)
	}
	if _, err := home.ScheduleEvery("hold", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it fire at least once

	closed := make(chan struct{})
	go func() {
		home.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: recurring trigger kept the cascade alive")
	}
	if _, err := home.ScheduleAfter("hold", time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("ScheduleAfter after Close = %v, want ErrClosed", err)
	}
}

func TestSuspendAfterCloseFails(t *testing.T) {
	rt := newVirtual(t, Config{}, 1)
	rt.Close()
	if _, err := rt.Suspend(); !errors.Is(err, ErrClosed) {
		t.Errorf("Suspend after Close = %v, want ErrClosed", err)
	}
}

// TestTriggersListInHandleOrder: the trigger table is a map, but the
// listing (GET /api/triggers, GET /homes/{id}/triggers) comes out in
// ascending handle order, so two reads of one table are the same bytes.
func TestTriggersListInHandleOrder(t *testing.T) {
	reg := device.Plugs(1)
	home, err := NewLive(Config{Model: visibility.EV}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	if err := home.Bank().Store(plugRoutine("later", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := home.ScheduleAfter("later", time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	listed := home.Triggers()
	if len(listed) != n {
		t.Fatalf("listed %d triggers, want %d", len(listed), n)
	}
	for i, tr := range listed {
		if tr.Handle != TriggerHandle(i+1) {
			t.Fatalf("trigger %d of the listing has handle %d, want %d (listing %+v)", i, tr.Handle, i+1, listed)
		}
	}
}
