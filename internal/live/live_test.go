package live

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/timer"
	"safehome/internal/visibility"
)

func newFleet(ids ...device.ID) *device.Fleet {
	reg := device.NewRegistry()
	for _, id := range ids {
		reg.Add(device.Info{ID: id, Kind: device.KindPlug, Initial: device.Off})
	}
	return device.NewFleet(reg)
}

// loopPoster is a miniature home runtime: one goroutine drains a callback
// queue, giving the controller the serialized context internal/runtime's
// mailbox provides in production.
type loopPoster struct {
	ops  chan func()
	done chan struct{}
}

func newLoopPoster() *loopPoster {
	p := &loopPoster{ops: make(chan func(), 64), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for fn := range p.ops {
			fn()
		}
	}()
	return p
}

func (p *loopPoster) PostCompletion(done Completion, err error) {
	p.ops <- func() { done.CommandDone(err) }
}
func (p *loopPoster) PostTimer(fn func()) { p.ops <- fn }

// run executes fn on the loop goroutine and waits for it.
func (p *loopPoster) run(fn func()) {
	ran := make(chan struct{})
	p.ops <- func() { fn(); close(ran) }
	<-ran
}

func (p *loopPoster) close() {
	close(p.ops)
	<-p.done
}

func TestEnvImplementsVisibilityEnv(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	var env visibility.Env = New(p, newFleet("a"))
	if env.Now().IsZero() {
		t.Fatal("Now() returned zero time")
	}
}

func TestExecActuatesAndCompletes(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	fleet := newFleet("a")
	var contacts []bool
	env := New(p, fleet)
	env.OnContact = func(_ device.ID, ok bool) { contacts = append(contacts, ok) }

	done := make(chan error, 1)
	start := time.Now()
	env.Exec(1, routine.Command{Device: "a", Target: device.On}, 30*time.Millisecond, visibility.DoneFunc(func(err error) {
		done <- err
	}))

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Exec completion err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exec never completed")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("Exec completed after %v, want >= hold duration", elapsed)
	}
	if st, _ := fleet.Status("a"); st != device.On {
		t.Errorf("device state = %q, want ON", st)
	}
	env.Wait()
	if len(contacts) != 1 || !contacts[0] {
		t.Errorf("contacts = %v, want one successful contact", contacts)
	}
}

func TestExecReportsFailureFast(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	fleet := newFleet("a")
	if err := fleet.Fail("a"); err != nil {
		t.Fatal(err)
	}
	env := New(p, fleet)
	done := make(chan error, 1)
	env.Exec(1, routine.Command{Device: "a", Target: device.On}, time.Hour, visibility.DoneFunc(func(err error) {
		done <- err
	}))
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exec to a failed device should report an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failed Exec should not wait out the hold duration")
	}
}

func TestAfterAndCancel(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	env := New(p, newFleet("a"))

	// After and Cancel belong to the poster's context, like every other
	// controller call.
	fired := make(chan struct{}, 1)
	p.run(func() { env.After(20*time.Millisecond, timer.Func(func() { fired <- struct{}{} })) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("After callback never fired")
	}

	cancelled := make(chan struct{}, 1)
	p.run(func() {
		h := env.After(50*time.Millisecond, timer.Func(func() { cancelled <- struct{}{} }))
		h.Cancel()
	})
	select {
	case <-cancelled:
		t.Fatal("cancelled timer still fired")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestLiveControllerEndToEnd(t *testing.T) {
	// Run a real EV controller over the live environment with an in-memory
	// fleet: the cooling routine and a conflicting lights routine must both
	// commit, with a serializable end state. The loopPoster serializes every
	// controller entry, standing in for the runtime mailbox.
	p := newLoopPoster()
	defer p.close()
	fleet := newFleet("window", "ac", "light")
	env := New(p, fleet)
	opts := visibility.DefaultOptions(visibility.EV)
	opts.DefaultShort = 10 * time.Millisecond

	var ctrl visibility.Controller
	p.run(func() {
		ctrl = visibility.New(env, fleet.Snapshot(), opts)
		ctrl.Submit(routine.New("cooling",
			routine.Command{Device: "window", Target: device.Closed},
			routine.Command{Device: "ac", Target: device.On}))
		ctrl.Submit(routine.New("lights",
			routine.Command{Device: "light", Target: device.On},
			routine.Command{Device: "ac", Target: device.Off}))
	})

	deadline := time.Now().Add(5 * time.Second)
	for {
		var pending int
		p.run(func() { pending = ctrl.PendingCount() })
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live controller did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}

	p.run(func() {
		for _, res := range ctrl.Results() {
			if res.Status != visibility.StatusCommitted {
				t.Errorf("routine %s = %v (%s)", res.Routine.Name, res.Status, res.AbortReason)
			}
		}
	})
	if st, _ := fleet.Status("window"); st != device.Closed {
		t.Errorf("window = %q, want CLOSED", st)
	}
}
