package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"safehome/internal/timer"
)

func TestRunOrdersByTimestamp(t *testing.T) {
	s := NewAtEpoch()
	var order []int
	s.Post(30*time.Millisecond, func() { order = append(order, 3) })
	s.Post(10*time.Millisecond, func() { order = append(order, 1) })
	s.Post(20*time.Millisecond, func() { order = append(order, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("expected 3 events, got %d", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := s.Elapsed(Epoch); got != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", got)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := NewAtEpoch()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events not FIFO: %v", order)
	}
}

func TestCallbackSchedulesMore(t *testing.T) {
	s := NewAtEpoch()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.Post(time.Minute, tick)
		}
	}
	s.Post(0, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("expected 5 ticks, got %d", count)
	}
	if got := s.Elapsed(Epoch); got != 4*time.Minute {
		t.Fatalf("clock advanced %v, want 4m", got)
	}
}

func TestCancel(t *testing.T) {
	s := NewAtEpoch()
	ran := false
	h := s.Arm(time.Second, timer.Func(func() { ran = true }))
	h.Cancel()
	s.Run()
	if ran {
		t.Fatal("canceled event still ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after run", s.Pending())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewAtEpoch()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.Post(d, func() { fired = append(fired, d) })
	}
	n := s.RunUntil(Epoch.Add(2 * time.Second))
	if n != 2 || len(fired) != 2 {
		t.Fatalf("expected 2 events before horizon, got %d", n)
	}
	if s.Pending() != 1 {
		t.Fatalf("expected 1 pending event, got %d", s.Pending())
	}
	n = s.Run()
	if n != 1 {
		t.Fatalf("expected remaining event to run, got %d", n)
	}
}

func TestNegativeAndPastSchedules(t *testing.T) {
	s := NewAtEpoch()
	ran := 0
	s.Post(-time.Hour, func() { ran++ })
	s.Arm(-time.Hour, timer.Func(func() { ran++ }))
	s.Run()
	if ran != 2 {
		t.Fatalf("past-scheduled events should run immediately, ran=%d", ran)
	}
	if !s.Now().Equal(Epoch) {
		t.Fatalf("clock should not go backwards, now=%v", s.Now())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	NewAtEpoch().Arm(time.Second, nil)
}

func TestReentrantRunPanics(t *testing.T) {
	s := NewAtEpoch()
	panicked := false
	s.Post(0, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		s.Run()
	})
	s.Run()
	if !panicked {
		t.Fatal("expected re-entrant Run to panic")
	}
}

func TestAdvance(t *testing.T) {
	s := NewAtEpoch()
	s.Advance(time.Hour)
	if got := s.Elapsed(Epoch); got != time.Hour {
		t.Fatalf("Advance moved clock by %v", got)
	}
	s.Post(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected Advance over a pending event to panic")
		}
	}()
	s.Advance(time.Minute)
}

func TestProcessedCount(t *testing.T) {
	s := NewAtEpoch()
	for i := 0; i < 7; i++ {
		s.Post(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", s.Processed())
	}
}

// Property: for random sets of delays, Run executes exactly len(delays)
// events, in non-decreasing timestamp order, and leaves the clock at the
// max delay.
func TestRunOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewAtEpoch()
		var seen []time.Duration
		var max time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d > max {
				max = d
			}
			s.Post(d, func() { seen = append(seen, d) })
		}
		n := s.Run()
		if n != len(raw) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		if len(raw) > 0 && s.Elapsed(Epoch) != max {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNextEventAt(t *testing.T) {
	s := NewAtEpoch()
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("NextEventAt on an empty queue reported an event")
	}
	near := s.Arm(5*time.Millisecond, timer.Func(func() {}))
	s.Post(20*time.Millisecond, func() {})
	if at, ok := s.NextEventAt(); !ok || !at.Equal(Epoch.Add(5*time.Millisecond)) {
		t.Fatalf("NextEventAt = %v, %v; want epoch+5ms", at, ok)
	}
	// Canceling the head lazily discards it: the next live event surfaces.
	near.Cancel()
	if at, ok := s.NextEventAt(); !ok || !at.Equal(Epoch.Add(20*time.Millisecond)) {
		t.Fatalf("NextEventAt after cancel = %v, %v; want epoch+20ms", at, ok)
	}
	s.Run()
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("NextEventAt after Run reported an event")
	}
}
