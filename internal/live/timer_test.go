package live

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"safehome/internal/timer"
)

// probe is a typed timer that records when it fired.
type probe struct {
	i     int
	due   time.Time
	fired *[]int
	late  *[]time.Duration
}

func (p *probe) Fire() {
	*p.fired = append(*p.fired, p.i)
	*p.late = append(*p.late, time.Since(p.due))
}

// TestTenThousandPendingTimers arms 10 000 timers on one env in four
// deadline buckets and cancels every other group of four. Every survivor
// fires exactly once and never before its deadline, the cancelled half
// never fires, and once they have fired the goroutine count is back where
// it started. Each expiry runs on a goroutine of its own until the loop
// takes its delivery, so the log reports the goroutine peak next to
// live.timer_late_p99_us.
func TestTenThousandPendingTimers(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	env := New(p, newFleet("a"))

	const n = 10_000
	buckets := [4]time.Duration{60 * time.Millisecond, 120 * time.Millisecond, 180 * time.Millisecond, 240 * time.Millisecond}
	var fired []int
	var late []time.Duration
	var want []int
	baseline := runtime.NumGoroutine()
	p.run(func() {
		for i := 0; i < n; i++ {
			d := buckets[i%4]
			h := env.After(d, &probe{i: i, due: time.Now().Add(d), fired: &fired, late: &late})
			if (i/4)%2 == 1 {
				h.Cancel()
			} else {
				want = append(want, i)
			}
		}
	})

	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				peak <- most
				return
			case <-time.After(time.Millisecond):
				most = max(most, runtime.NumGoroutine())
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got int
		p.run(func() { got = len(fired) })
		if got >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d timers fired", got, len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // past the last cancelled deadline
	close(stop)
	most := <-peak

	p.run(func() {
		got := slices.Clone(fired)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%d timers fired, want the %d survivors once each and no cancelled one", len(fired), len(want))
		}
		if early := slices.IndexFunc(late, func(d time.Duration) bool { return d < 0 }); early >= 0 {
			t.Errorf("a timer fired %v before its deadline", -late[early])
		}
	})
	for now := runtime.NumGoroutine(); now > baseline; now = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every timer fired, %d before they were armed", now, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	slices.Sort(late)
	p99 := late[len(late)*99/100]
	t.Logf("%d timers fired; goroutines peaked at %d over a baseline of %d; live.timer_late_p99_us = %.0f",
		len(fired), most, baseline, float64(p99)/float64(time.Microsecond))
}

// farTimer is a timer armed far past the end of the test. Its time.Time
// holds a pointer, so it is no tiny allocation: the GC clears a weak
// pointer into a tiny block only once the whole block is dead.
type farTimer struct {
	fired bool
	at    time.Time
}

func (f *farTimer) Fire() { f.fired = true }

// TestCancelReleasesTheTimer: a trigger may be scheduled years out and
// cancelled through the HTTP API in a loop, so a cancelled timer must not
// stay reachable until its deadline. Cancelling stops the runtime timer,
// and the Go runtime drops stopped timers from its heap; without the stop
// every one of these would stay reachable for a century.
func TestCancelReleasesTheTimer(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	env := New(p, newFleet("a"))

	const n = 10_000
	refs := make([]weak.Pointer[farTimer], n)
	p.run(func() {
		for i := range refs {
			ft := &farTimer{}
			refs[i] = weak.Make(ft)
			env.After(100*365*24*time.Hour, ft).Cancel()
		}
	})

	reachable := n
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		reachable = 0
		for _, r := range refs {
			if r.Value() != nil {
				reachable++
			}
		}
		if reachable <= n/4 || time.Now().After(deadline) {
			break
		}
	}
	if reachable > n/4 {
		t.Fatalf("%d of %d cancelled timers still reachable", reachable, n)
	}
	t.Logf("%d of %d cancelled timers still reachable after GC", reachable, n)
}

// TestCancelAfterExpiryStillCancels: a timer whose runtime timer has
// expired, with its delivery queued behind other work on the loop, does not
// fire once it is cancelled there.
func TestCancelAfterExpiryStillCancels(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	env := New(p, newFleet("a"))

	fired := make(chan struct{}, 1)
	p.run(func() {
		h := env.After(0, timer.Func(func() { fired <- struct{}{} }))
		for deadline := time.Now().Add(5 * time.Second); len(p.ops) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the expired timer's delivery never queued")
				break
			}
		}
		h.Cancel()
	})
	p.run(func() {}) // drain the queued delivery
	select {
	case <-fired:
		t.Fatal("a timer cancelled after its runtime timer expired still fired")
	default:
	}
}
