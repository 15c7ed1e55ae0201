// Package sim implements the discrete-event simulation (DES) timeline that
// SafeHome's workload-driven experiments run on.
//
// The paper evaluates SafeHome "over an emulation" so that long commands
// (e.g. a 40-minute dishwasher cycle) and millions of trials are practical.
// This package provides the virtual clock for that emulation: callbacks are
// scheduled at virtual timestamps and executed in timestamp order by Run.
// All callbacks run on the caller's goroutine, so everything driven by a
// Sim is single-threaded and deterministic.
package sim

import (
	"fmt"
	"time"

	"safehome/internal/minheap"
)

// Epoch is the conventional start-of-run instant used by simulations and
// tests. Any time.Time works; using a fixed epoch keeps golden values stable.
var Epoch = time.Date(2021, 4, 26, 8, 0, 0, 0, time.UTC)

// Completion receives a command's outcome: Complete schedules
// done.CommandDone(err). An alias, not a named type, so that the identical
// interface of the environments above (visibility.Completion,
// live.Completion) passes through unconverted.
type Completion = interface{ CommandDone(error) }

// event is a scheduled callback. It is either a plain callback (fn) or a
// typed completion (done invoked with err): a command completion carries its
// target and outcome as fields, so scheduling one builds no closure.
type event struct {
	at       time.Time
	seq      uint64 // tie-breaker: FIFO among events at the same instant
	fn       func()
	done     Completion
	err      error
	canceled bool
}

// before orders events by timestamp, then FIFO by scheduling sequence. seq
// is unique, so the order is total and the heap's pop order is deterministic.
func before(a, b *event) bool {
	if c := a.at.Compare(b.at); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulator with a virtual clock.
//
// Sim is not safe for concurrent use: schedule and run from one goroutine
// only (typically the test or harness goroutine).
type Sim struct {
	now   time.Time
	queue []*event // minheap under before
	// free holds fired and discarded events for reuse, so a steady stream of
	// schedule/fire cycles allocates nothing. A cancel handle outliving its
	// event stays harmless: it is bound to the event's seq, which changes
	// when the slot is reused.
	free      []*event
	seq       uint64
	processed int
	running   bool
}

// New returns a simulator whose clock starts at start.
func New(start time.Time) *Sim {
	return &Sim{now: start}
}

// NewAtEpoch returns a simulator starting at the conventional Epoch.
func NewAtEpoch() *Sim { return New(Epoch) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Pending reports the number of not-yet-run, not-canceled events.
func (s *Sim) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// Processed reports how many events have been executed so far.
func (s *Sim) Processed() int { return s.processed }

// After schedules fn to run d after the current virtual time and returns a
// cancellation function. Negative delays are treated as zero (the event
// fires "now", after already-queued events for this instant). Callers that
// never cancel should use Post, which builds no handle.
func (s *Sim) After(d time.Duration, fn func()) (cancel func()) {
	return s.At(s.now.Add(max(d, 0)), fn)
}

// At schedules fn to run at virtual time t and returns a cancellation
// function. Scheduling in the past is clamped to the current time.
func (s *Sim) At(t time.Time, fn func()) (cancel func()) {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	ev := s.schedule(t)
	ev.fn = fn
	seq := ev.seq
	return func() {
		if ev.seq == seq { // else the event fired and its slot was reused
			ev.canceled = true
		}
	}
}

// Post is After without a cancellation handle: fire-and-forget.
func (s *Sim) Post(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Post called with nil callback")
	}
	s.schedule(s.now.Add(max(d, 0))).fn = fn
}

// Complete schedules done.CommandDone(err) to run d after the current
// virtual time. It is the allocation-free completion path: target and
// outcome ride in the event itself, so one long-lived done serves any number
// of events.
func (s *Sim) Complete(d time.Duration, done Completion, err error) {
	if done == nil {
		panic("sim: Complete called with nil callback")
	}
	ev := s.schedule(s.now.Add(max(d, 0)))
	ev.done, ev.err = done, err
}

// schedule queues a blank event at t (clamped to now), reusing a fired one
// when available. The caller fills in the callback.
func (s *Sim) schedule(t time.Time) *event {
	if t.Before(s.now) {
		t = s.now
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ev = new(event)
	}
	s.seq++
	*ev = event{at: t, seq: s.seq}
	s.queue = minheap.Push(s.queue, ev, before)
	return ev
}

// pop removes and returns the earliest event.
func (s *Sim) pop() (ev *event) {
	s.queue, ev = minheap.Pop(s.queue, before)
	return ev
}

// recycle returns a popped event to the free list, dropping its references.
func (s *Sim) recycle(ev *event) {
	ev.fn, ev.done, ev.err = nil, nil, nil
	s.free = append(s.free, ev)
}

// NextEventAt reports the timestamp of the earliest pending event, or false
// if the queue is empty. Canceled events at the head of the queue are lazily
// discarded. Like every Sim method it must be called from the owning
// goroutine; publish the result through an atomic if another goroutine (e.g.
// a live-clock pumper) needs it.
func (s *Sim) NextEventAt() (time.Time, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].canceled {
			s.recycle(s.pop())
			continue
		}
		return s.queue[0].at, true
	}
	return time.Time{}, false
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It returns false if no events remain.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		ev := s.pop()
		fired := *ev
		// Recycle before the callback runs, so whatever it schedules can
		// already reuse the slot.
		s.recycle(ev)
		if fired.canceled {
			continue
		}
		if fired.at.After(s.now) {
			s.now = fired.at
		}
		s.processed++
		if fired.done != nil {
			fired.done.CommandDone(fired.err)
		} else {
			fired.fn()
		}
		return true
	}
	return false
}

// Run executes events in timestamp order until the queue drains, and returns
// the number of events processed. Callbacks may schedule further events.
// Run panics if invoked re-entrantly from a callback.
func (s *Sim) Run() int {
	return s.RunUntil(time.Time{})
}

// RunUntil executes events whose timestamp is <= horizon (or all events if
// horizon is the zero time) and returns the number processed. The clock is
// left at the last executed event (it does not jump to the horizon).
func (s *Sim) RunUntil(horizon time.Time) int {
	if s.running {
		panic("sim: Run called re-entrantly from a callback")
	}
	s.running = true
	defer func() { s.running = false }()

	count := 0
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.canceled {
			s.recycle(s.pop())
			continue
		}
		if !horizon.IsZero() && next.at.After(horizon) {
			break
		}
		if !s.Step() {
			break
		}
		count++
	}
	return count
}

// Advance moves the clock forward by d without running events; it panics if
// doing so would skip over pending events (that would violate causality).
// It is mainly useful in tests that want to examine "idle time" behaviour.
func (s *Sim) Advance(d time.Duration) {
	target := s.now.Add(d)
	for _, ev := range s.queue {
		if !ev.canceled && ev.at.Before(target) {
			panic(fmt.Sprintf("sim: Advance(%v) would skip event scheduled at %v", d, ev.at))
		}
	}
	s.now = target
}

// Elapsed returns the virtual time elapsed since start.
func (s *Sim) Elapsed(start time.Time) time.Duration { return s.now.Sub(start) }
