package sim

// Tests for the typed, recycled event path: fired events are reused, a
// completion or a timer is an event field rather than a closure, and none of
// that is observable — FIFO order, Processed counts and cancellation behave
// as they did when every schedule call built a fresh event.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"safehome/internal/timer"
)

// doneFunc adapts a func to Completion, as visibility.DoneFunc does.
type doneFunc func(error)

func (f doneFunc) CommandDone(err error) { f(err) }

// TestStaleCancelCannotHitReusedSlot takes a timer handle, lets its event
// fire (which recycles the slot), schedules new events until one reuses that
// slot, and then cancels through the stale handle: nothing may be canceled.
func TestStaleCancelCannotHitReusedSlot(t *testing.T) {
	s := NewAtEpoch()
	fired := 0
	stale := s.Arm(time.Second, timer.Func(func() { fired++ }))
	s.Run()
	if fired != 1 || len(s.free) != 1 {
		t.Fatalf("fired=%d free=%d after the first event, want 1 and 1", fired, len(s.free))
	}
	slot := s.free[0]

	ran := map[string]bool{}
	s.Arm(time.Second, timer.Func(func() { ran["timer"] = true }))
	if len(s.free) != 0 || s.queue[0] != slot {
		t.Fatal("the second event did not reuse the first one's slot")
	}
	stale.Cancel()
	s.Post(time.Second, func() { ran["post"] = true })
	s.Complete(time.Second, doneFunc(func(error) { ran["completion"] = true }), nil)
	stale.Cancel()
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d after stale cancels, want 3", got)
	}
	if n := s.Run(); n != 3 || len(ran) != 3 {
		t.Fatalf("ran %d events %v, want all three", n, ran)
	}
}

// TestCancelFromOwnCallbackIsHarmless covers the controller's idiom of
// clearing every timer of a routine from inside one of those timers: the
// handle is cancelled after its event fired and was recycled, possibly after
// the callback already scheduled a successor into the same slot.
func TestCancelFromOwnCallbackIsHarmless(t *testing.T) {
	s := NewAtEpoch()
	var h timer.Handle
	successor := false
	h = s.Arm(time.Second, timer.Func(func() {
		s.Post(time.Second, func() { successor = true }) // reuses the firing event's slot
		h.Cancel()
	}))
	if n := s.Run(); n != 2 || !successor {
		t.Fatalf("ran %d events, successor=%v; the self-cancel hit the successor", n, successor)
	}
}

func TestCancelBeforeFireStillCancels(t *testing.T) {
	s := NewAtEpoch()
	var order []string
	s.Post(time.Second, func() { order = append(order, "a") })
	h := s.Arm(2*time.Second, timer.Func(func() { order = append(order, "canceled") }))
	s.Complete(3*time.Second, doneFunc(func(error) { order = append(order, "c") }), nil)
	h.Cancel()
	h.Cancel() // idempotent
	if n := s.Run(); n != 2 || fmt.Sprint(order) != "[a c]" {
		t.Fatalf("ran %d events in order %v, want 2 in [a c]", n, order)
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2 (canceled events do not count)", s.Processed())
	}
}

// recordTimer is a typed timer: a long-lived record that is its own Timer.
type recordTimer struct {
	got *[]int
	i   int
}

func (r *recordTimer) Fire() { *r.got = append(*r.got, r.i) }

// TestSameInstantFIFOAcrossKindsAndReuse schedules typed timers, func
// timers, posts and completions for one instant, some into recycled slots,
// and expects them in scheduling (seq) order.
func TestSameInstantFIFOAcrossKindsAndReuse(t *testing.T) {
	s := NewAtEpoch()
	// Fire a first batch so the free list is populated in a scrambled order.
	for i := 0; i < 8; i++ {
		s.Post(time.Duration(8-i)*time.Millisecond, func() {})
	}
	s.Run()

	var got []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 32; i++ {
		i := i
		switch i % 4 {
		case 0:
			s.Arm(at.Sub(s.Now()), &recordTimer{got: &got, i: i})
		case 1:
			s.Arm(at.Sub(s.Now()), timer.Func(func() { got = append(got, i) }))
		case 2:
			s.Post(at.Sub(s.Now()), func() { got = append(got, i) })
		default:
			s.Complete(at.Sub(s.Now()), doneFunc(func(error) { got = append(got, i) }), nil)
		}
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events ran as %v, want scheduling order", got)
		}
	}
	if len(got) != 32 || s.Processed() != 40 {
		t.Fatalf("ran %d of 32, Processed = %d, want 40", len(got), s.Processed())
	}
}

func TestCompleteDeliversItsError(t *testing.T) {
	s := NewAtEpoch()
	boom := errors.New("boom")
	var got []error
	done := doneFunc(func(err error) { got = append(got, err) }) // one func, many events
	s.Complete(2*time.Second, done, boom)
	s.Complete(time.Second, done, nil)
	s.Complete(-time.Hour, done, boom) // clamped to now, like After
	s.Run()
	if len(got) != 3 || got[0] != boom || got[1] != nil || got[2] != boom {
		t.Fatalf("completions delivered %v, want [boom <nil> boom]", got)
	}
	if el := s.Elapsed(Epoch); el != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", el)
	}
}

func TestNilCompletionAndPostPanic(t *testing.T) {
	for name, schedule := range map[string]func(*Sim){
		"Complete": func(s *Sim) { s.Complete(time.Second, nil, nil) },
		"Post":     func(s *Sim) { s.Post(time.Second, nil) },
		"Arm":      func(s *Sim) { s.Arm(time.Second, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a nil callback did not panic", name)
				}
			}()
			schedule(NewAtEpoch())
		}()
	}
}

// TestSteadyStateSchedulingDoesNotAllocate pins the point of the exercise: a
// warmed simulator completes and posts events without touching the heap.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	s := NewAtEpoch()
	var done doneFunc
	remaining := 0
	done = func(error) {
		if remaining--; remaining > 0 {
			s.Complete(time.Millisecond, done, nil)
		}
	}
	tick := func() {}
	run := func() {
		remaining = 64
		s.Complete(time.Millisecond, done, nil)
		for i := 0; i < 8; i++ {
			s.Post(time.Duration(i)*time.Millisecond, tick)
		}
		s.Run()
	}
	run() // warm the free list and the queue's backing array
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.1f allocs per 72 events", allocs)
	if allocs != 0 {
		t.Fatalf("a warmed simulator allocates %.1f objects per 72 events", allocs)
	}
}

// TestBurstAllocatesSlabs: a trial posts all its submissions before the
// first event fires, so the free list is empty and every event is new. They
// come out of slabs that double up to maxSlab events: a burst of N costs
// the slabs plus the regrowth of the queue and the free list, not an object
// per event.
func TestBurstAllocatesSlabs(t *testing.T) {
	const n = 1000
	tick := func() {}
	burst := func() {
		s := NewAtEpoch()
		for i := 0; i < n; i++ {
			s.Post(time.Duration(i%7)*time.Millisecond, tick)
		}
	}
	// Slabs of 1, 1, 2, … 64 events hold the first 128, then one per 64; the
	// queue and the free list regrow about log2(n) times each; NewAtEpoch
	// is one more.
	budget := float64(8 + (n-128+maxSlab-1)/maxSlab + 2*10 + 1)
	got := testing.AllocsPerRun(5, burst)
	t.Logf("a burst of %d posts: %.0f allocs (budget %.0f)", n, got, budget)
	if got > budget {
		t.Fatalf("a burst of %d posts costs %.0f allocs, want at most %.0f", n, got, budget)
	}
}

// TestStaleCancelOnSlabEvent takes timer handles on a burst of events, most
// of which share slabs, lets them fire, refills the slots from the free list
// and cancels through the stale handles: none of the new events may be
// canceled, and a handle cancelled before its event fires still cancels it.
func TestStaleCancelOnSlabEvent(t *testing.T) {
	const n = 8 // slabs of 1, 1, 2 and 4 events
	s := NewAtEpoch()
	var stale []timer.Handle
	for i := 0; i < n; i++ {
		stale = append(stale, s.Arm(time.Second, timer.Func(func() {})))
	}
	if len(s.free) != 0 {
		t.Fatalf("%d events left %d spare, want the slabs used up", n, len(s.free))
	}
	pulled := s.Arm(2*time.Second, timer.Func(func() { t.Error("a canceled slab event ran") }))
	pulled.Cancel()
	s.Run()

	ran := 0
	for i := 0; i < n; i++ {
		s.Post(time.Second, func() { ran++ })
	}
	for _, h := range stale {
		h.Cancel()
	}
	if got := s.Run(); got != n || ran != n {
		t.Fatalf("ran %d of %d events after stale cancels", ran, n)
	}
}
