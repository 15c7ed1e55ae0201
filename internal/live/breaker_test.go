package live

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

// scriptedActuator fails while broken and counts Apply attempts.
type scriptedActuator struct {
	mu      sync.Mutex
	broken  bool
	applies int
	block   chan struct{} // non-nil: Apply parks until closed (timeout tests)
}

func (a *scriptedActuator) Apply(id device.ID, target device.State) error {
	a.mu.Lock()
	a.applies++
	broken, block := a.broken, a.block
	a.mu.Unlock()
	if block != nil {
		<-block
	}
	if broken {
		return fmt.Errorf("%w: %s: scripted failure", device.ErrUnavailable, id)
	}
	return nil
}

func (a *scriptedActuator) Status(id device.ID) (device.State, error) { return device.On, nil }
func (a *scriptedActuator) Ping(id device.ID) error                   { return nil }

func (a *scriptedActuator) setBroken(b bool) {
	a.mu.Lock()
	a.broken = b
	a.mu.Unlock()
}

func (a *scriptedActuator) attempts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applies
}

// execWait runs one command through the env and returns its completion error.
func execWait(e *Env, id device.ID) error {
	ch := make(chan error, 1)
	e.Exec(1, routine.Command{Device: id, Target: device.On}, 0, visibility.DoneFunc(func(err error) { ch <- err }))
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		return errors.New("test: command never completed")
	}
}

func TestBreakerOpensAtThresholdAndShortCircuits(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	act := &scriptedActuator{broken: true}
	e := NewWithOptions(p, act, Options{
		Timeout:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no half-open during the test
	})

	for i := 0; i < 2; i++ {
		if err := execWait(e, "plug"); !errors.Is(err, device.ErrUnavailable) {
			t.Fatalf("failure %d = %v, want ErrUnavailable", i, err)
		}
	}
	if st := e.BreakerState("plug"); st != BreakerOpen {
		t.Fatalf("breaker = %v after %d failures, want open", st, 2)
	}

	// Open breaker: the device is not contacted at all.
	before := act.attempts()
	if err := execWait(e, "plug"); !errors.Is(err, device.ErrUnavailable) {
		t.Fatalf("short-circuit error = %v, want ErrUnavailable", err)
	}
	if got := act.attempts(); got != before {
		t.Errorf("open breaker still contacted the device (%d -> %d attempts)", before, got)
	}
	if n := e.ShortCircuits(); n != 1 {
		t.Errorf("ShortCircuits = %d, want 1", n)
	}
	stats := e.Breakers()
	if len(stats) != 1 || stats[0].Opens != 1 || stats[0].State != "open" {
		t.Errorf("Breakers() = %+v, want one open breaker with opens=1", stats)
	}
}

func TestBreakerCountsEveryAttempt(t *testing.T) {
	// Retries are device exchanges too: one command with Retries=1 against a
	// dead device must trip a threshold-2 breaker by itself.
	p := newLoopPoster()
	defer p.close()
	act := &scriptedActuator{broken: true}
	e := NewWithOptions(p, act, Options{
		Timeout:          -1,
		Retries:          1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err := execWait(e, "plug"); !errors.Is(err, device.ErrUnavailable) {
		t.Fatalf("command = %v, want ErrUnavailable", err)
	}
	if got := act.attempts(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + retry)", got)
	}
	if st := e.BreakerState("plug"); st != BreakerOpen {
		t.Errorf("breaker = %v after one retried command, want open", st)
	}
}

func TestBreakerHalfOpenProbeDecides(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	act := &scriptedActuator{broken: true}
	e := NewWithOptions(p, act, Options{
		Timeout:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  20 * time.Millisecond,
	})

	execWait(e, "plug") // opens
	if st := e.BreakerState("plug"); st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}

	// Probe against a still-broken device re-opens.
	time.Sleep(25 * time.Millisecond)
	if err := execWait(e, "plug"); err == nil {
		t.Fatal("probe against broken device succeeded")
	}
	if st := e.BreakerState("plug"); st != BreakerOpen {
		t.Fatalf("breaker = %v after failed probe, want open again", st)
	}

	// Probe against a healed device closes.
	act.setBroken(false)
	time.Sleep(25 * time.Millisecond)
	if err := execWait(e, "plug"); err != nil {
		t.Fatalf("probe against healed device = %v, want success", err)
	}
	if st := e.BreakerState("plug"); st != BreakerClosed {
		t.Errorf("breaker = %v after successful probe, want closed", st)
	}
	stats := e.Breakers()
	if len(stats) != 1 || stats[0].Opens != 2 {
		t.Errorf("Breakers() = %+v, want opens=2 (initial + failed probe)", stats)
	}
}

func TestSuccessResetsConsecutiveFailures(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	act := &scriptedActuator{}
	e := NewWithOptions(p, act, Options{
		Timeout:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	act.setBroken(true)
	execWait(e, "plug") // fails: 1 consecutive
	act.setBroken(false)
	execWait(e, "plug") // success resets
	act.setBroken(true)
	execWait(e, "plug") // fails: 1 consecutive again
	if st := e.BreakerState("plug"); st != BreakerClosed {
		t.Errorf("breaker = %v, want closed (successes reset the count)", st)
	}
}

func TestAttemptTimeoutBoundsWedgedDevice(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	block := make(chan struct{})
	defer close(block)
	act := &scriptedActuator{block: block}
	e := NewWithOptions(p, act, Options{
		Timeout:          20 * time.Millisecond,
		BreakerThreshold: -1, // isolate the timeout path
	})
	start := time.Now()
	err := execWait(e, "plug")
	if !errors.Is(err, device.ErrUnavailable) {
		t.Fatalf("wedged device = %v, want ErrUnavailable", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("timeout took %v, want ~20ms", waited)
	}
}

func TestOnContactSeesEveryOutcome(t *testing.T) {
	p := newLoopPoster()
	defer p.close()
	act := &scriptedActuator{broken: true}
	e := NewWithOptions(p, act, Options{
		Timeout:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	var mu sync.Mutex
	var contacts []bool
	e.OnContact = func(id device.ID, ok bool) {
		mu.Lock()
		contacts = append(contacts, ok)
		mu.Unlock()
	}
	execWait(e, "plug") // real failure -> opens
	execWait(e, "plug") // short-circuit: still reported as a silence
	act.setBroken(false)
	mu.Lock()
	got := append([]bool(nil), contacts...)
	mu.Unlock()
	if len(got) != 2 || got[0] || got[1] {
		t.Errorf("OnContact outcomes = %v, want [false false] (failure then short-circuit)", got)
	}
}
