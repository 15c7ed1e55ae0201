package sim

// Tests for the typed, recycled event path: fired events are reused, a
// completion is an event field rather than a closure, and none of that is
// observable — FIFO order, Processed counts and cancellation behave as they
// did when every schedule call built a fresh event.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// doneFunc adapts a func to Completion, as visibility.DoneFunc does.
type doneFunc func(error)

func (f doneFunc) CommandDone(err error) { f(err) }

// TestStaleCancelCannotHitReusedSlot takes a cancel handle, lets its event
// fire (which recycles the slot), schedules new events until one reuses that
// slot, and then pulls the stale handle: nothing may be canceled.
func TestStaleCancelCannotHitReusedSlot(t *testing.T) {
	s := NewAtEpoch()
	fired := 0
	stale := s.After(time.Second, func() { fired++ })
	s.Run()
	if fired != 1 || len(s.free) != 1 {
		t.Fatalf("fired=%d free=%d after the first event, want 1 and 1", fired, len(s.free))
	}
	slot := s.free[0]

	ran := map[string]bool{}
	s.After(time.Second, func() { ran["closure"] = true })
	if len(s.free) != 0 || s.queue[0] != slot {
		t.Fatal("the second event did not reuse the first one's slot")
	}
	stale()
	s.Post(time.Second, func() { ran["post"] = true })
	s.Complete(time.Second, doneFunc(func(error) { ran["completion"] = true }), nil)
	stale()
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d after stale cancels, want 3", got)
	}
	if n := s.Run(); n != 3 || len(ran) != 3 {
		t.Fatalf("ran %d events %v, want all three", n, ran)
	}
}

// TestCancelFromOwnCallbackIsHarmless covers the controller's idiom of
// clearing every timer of a routine from inside one of those timers: the
// handle is pulled after its event fired and was recycled, possibly after
// the callback already scheduled a successor into the same slot.
func TestCancelFromOwnCallbackIsHarmless(t *testing.T) {
	s := NewAtEpoch()
	var cancel func()
	successor := false
	cancel = s.After(time.Second, func() {
		s.Post(time.Second, func() { successor = true }) // reuses the firing event's slot
		cancel()
	})
	if n := s.Run(); n != 2 || !successor {
		t.Fatalf("ran %d events, successor=%v; the self-cancel hit the successor", n, successor)
	}
}

func TestCancelBeforeFireStillCancels(t *testing.T) {
	s := NewAtEpoch()
	var order []string
	s.Post(time.Second, func() { order = append(order, "a") })
	cancel := s.After(2*time.Second, func() { order = append(order, "canceled") })
	s.Complete(3*time.Second, doneFunc(func(error) { order = append(order, "c") }), nil)
	cancel()
	cancel() // idempotent
	if n := s.Run(); n != 2 || fmt.Sprint(order) != "[a c]" {
		t.Fatalf("ran %d events in order %v, want 2 in [a c]", n, order)
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2 (canceled events do not count)", s.Processed())
	}
}

// TestSameInstantFIFOAcrossKindsAndReuse schedules closures, posts and
// completions for one instant, some into recycled slots, and expects them in
// scheduling order.
func TestSameInstantFIFOAcrossKindsAndReuse(t *testing.T) {
	s := NewAtEpoch()
	// Fire a first batch so the free list is populated in a scrambled order.
	for i := 0; i < 8; i++ {
		s.Post(time.Duration(8-i)*time.Millisecond, func() {})
	}
	s.Run()

	var got []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 24; i++ {
		i := i
		switch i % 3 {
		case 0:
			s.At(at, func() { got = append(got, i) })
		case 1:
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
	if len(got) != 24 || s.Processed() != 32 {
		t.Fatalf("ran %d of 24, Processed = %d, want 32", len(got), s.Processed())
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
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warmed simulator allocates %.1f objects per 72 events", allocs)
	}
}
