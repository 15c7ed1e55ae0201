// Package live provides the real-time execution environment for SafeHome's
// concurrency controllers: commands actuate real (or emulated) devices
// through a device.Actuator and holds are real wall-clock durations. Every
// callback — command completions and timer firings — is posted into the
// home runtime's operation mailbox (the Poster), so the controllers keep the
// same single-threaded view they have under simulation without any lock
// shared across packages.
//
// The actuation path is hardened against misbehaving devices: each attempt
// is bounded by a per-attempt timeout, failures are retried with jittered
// exponential backoff, and a per-device circuit breaker fails commands fast
// while a device is flapping — the failure is reported through OnContact so
// the failure detector (and through it the controller) learns the device is
// offline, instead of every routine rediscovering it at full timeout cost.
package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// Completion receives the outcome of one command handed to Env.Exec. It is
// the same type as visibility.Completion (an alias of one interface
// literal), so a controller's completion passes through Exec and the Poster
// unconverted.
type Completion = interface{ CommandDone(error) }

// Poster delivers environment callbacks into the controller's serialized
// context. internal/runtime implements it by enqueueing typed operations in
// the home's mailbox; tests may run callbacks on any single goroutine.
type Poster interface {
	// PostCompletion delivers a command completion (done.CommandDone(err))
	// to the controller's goroutine.
	PostCompletion(done Completion, err error)
	// PostTimer delivers an expired timer's callback to the controller's
	// goroutine.
	PostTimer(fn func())
}

// Actuation-path defaults.
const (
	// DefaultTimeout bounds one actuation attempt.
	DefaultTimeout = 10 * time.Second
	// DefaultRetryBackoff is the base of the jittered retry backoff.
	DefaultRetryBackoff = 25 * time.Millisecond
	// DefaultBreakerThreshold opens a device's breaker after this many
	// consecutive failed actuation attempts.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker waits before
	// admitting a single probe command (half-open).
	DefaultBreakerCooldown = 3 * time.Second
)

// Options tunes the actuation path. The zero value means defaults.
type Options struct {
	// Timeout bounds one actuation attempt; an exchange exceeding it fails
	// with device.ErrUnavailable (0 = DefaultTimeout; negative disables).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried before the
	// failure reaches the controller (default 0: the paper's abort semantics
	// apply on the first failure; owners opt in to retries).
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// retries (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// BreakerThreshold opens a device's circuit breaker after this many
	// consecutive failed actuation attempts — retries included (0 =
	// DefaultBreakerThreshold; negative disables breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open wait (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
}

func (o Options) normalized() Options {
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// BreakerState is one circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: commands flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: commands fail fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe command is in flight; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one device's circuit breaker. Guarded by Env.mu.
type breaker struct {
	state     BreakerState
	fails     int       // consecutive failures
	reopens   time.Time // when an open breaker admits its probe
	probing   bool      // a half-open probe is in flight
	opens     int64     // times the breaker has opened (monotonic)
	halfOpens int64     // times an open breaker admitted a probe (monotonic)
	shorts    int64     // commands failed fast on this breaker (monotonic)
}

// BreakerStats is one device's breaker position for Status surfaces and the
// /metrics breaker collector. State is the current position; Opens,
// HalfOpens and ShortCircuits are monotone per-device transition counters.
type BreakerStats struct {
	Device        device.ID `json:"device"`
	State         string    `json:"state"`
	Fails         int       `json:"consecutive_failures,omitempty"`
	Opens         int64     `json:"opens,omitempty"`
	HalfOpens     int64     `json:"half_opens,omitempty"`
	ShortCircuits int64     `json:"short_circuits,omitempty"`
}

// Env implements visibility.Env over wall-clock time and a device actuator.
type Env struct {
	poster   Poster
	actuator device.Actuator
	opts     Options

	// OnContact, if set, is called (from the command goroutine, outside the
	// controller's context) after every device exchange with the exchange's
	// success — the runtime uses it to feed implicit acks/silences to the
	// failure detector. A breaker's fast-fail also reports a silence, so the
	// detector (and the controller) see an open breaker as device-offline.
	OnContact func(id device.ID, ok bool)

	// inflight counts command goroutines; a WaitGroup cannot be used here
	// because draining a completion may chain the routine's next Exec, and
	// Add-from-zero concurrent with Wait is a WaitGroup reuse violation.
	inflight atomic.Int64

	mu            sync.Mutex
	breakers      map[device.ID]*breaker
	shortCircuits atomic.Int64 // commands failed fast on an open breaker
}

// New builds a live environment with default actuation options.
func New(poster Poster, actuator device.Actuator) *Env {
	return NewWithOptions(poster, actuator, Options{})
}

// NewWithOptions builds a live environment delivering its callbacks through
// the poster, with the given actuation-path tuning.
func NewWithOptions(poster Poster, actuator device.Actuator, opts Options) *Env {
	return &Env{
		poster:   poster,
		actuator: actuator,
		opts:     opts.normalized(),
		breakers: make(map[device.ID]*breaker),
	}
}

// Now implements visibility.Env.
func (e *Env) Now() time.Time { return time.Now() }

// After implements visibility.Env.
func (e *Env) After(d time.Duration, fn func()) (cancel func()) {
	timer := time.AfterFunc(d, func() { e.poster.PostTimer(fn) })
	return func() { timer.Stop() }
}

// Exec implements visibility.Env: the device is actuated immediately, the
// exclusive hold lasts for the command's duration, and done is posted into
// the controller's mailbox. The completion is posted before the in-flight
// count drops, so Wait callers observe it queued.
func (e *Env) Exec(rid routine.ID, cmd routine.Command, hold time.Duration, done Completion) {
	e.inflight.Add(1)
	go func() {
		defer e.inflight.Add(-1)
		err := e.actuate(cmd.Device, cmd.Target)
		if err == nil {
			time.Sleep(hold)
		}
		e.poster.PostCompletion(done, err)
	}()
}

// actuate runs one command through the device's breaker, the per-attempt
// timeout and the retry policy. It runs on the command goroutine.
func (e *Env) actuate(id device.ID, target device.State) error {
	probe, admitted := e.admit(id)
	if !admitted {
		e.shortCircuits.Add(1)
		if e.OnContact != nil {
			e.OnContact(id, false)
		}
		return fmt.Errorf("%w: %s: circuit breaker open", device.ErrUnavailable, id)
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = e.applyOnce(id, target)
		// Every attempt is a device exchange, so each one folds into the
		// breaker: a flapping device trips it mid-retry, not one whole
		// command later.
		e.record(id, err == nil, probe)
		// A half-open probe never retries: one command decides the breaker.
		if err == nil || probe || attempt >= e.opts.Retries {
			break
		}
		time.Sleep(jittered(e.opts.RetryBackoff << attempt))
	}
	if e.OnContact != nil {
		e.OnContact(id, err == nil)
	}
	return err
}

// applyOnce is one bounded actuation attempt. The exchange runs on a helper
// goroutine so a wedged device RPC cannot stall the command pipeline past
// the timeout; a late completion is dropped into the buffered channel.
func (e *Env) applyOnce(id device.ID, target device.State) error {
	if e.opts.Timeout <= 0 {
		return e.actuator.Apply(id, target)
	}
	ch := make(chan error, 1)
	go func() { ch <- e.actuator.Apply(id, target) }()
	t := time.NewTimer(e.opts.Timeout)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		return fmt.Errorf("%w: %s: no response within %s", device.ErrUnavailable, id, e.opts.Timeout)
	}
}

// admit consults the device's breaker: closed admits freely, open fails fast
// until the cooldown elapses, then exactly one probe is admitted.
func (e *Env) admit(id device.ID) (probe, admitted bool) {
	if e.opts.BreakerThreshold <= 0 {
		return false, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.breakers[id]
	if b == nil {
		b = &breaker{}
		e.breakers[id] = b
	}
	switch b.state {
	case BreakerOpen:
		if time.Now().Before(b.reopens) {
			b.shorts++
			return false, false
		}
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.probing = true
		return true, true
	case BreakerHalfOpen:
		if b.probing {
			b.shorts++
			return false, false
		}
		b.probing = true
		return true, true
	default:
		return false, true
	}
}

// record folds an actuation outcome into the device's breaker.
func (e *Env) record(id device.ID, ok, probe bool) {
	if e.opts.BreakerThreshold <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.breakers[id]
	if b == nil {
		return
	}
	if probe {
		b.probing = false
	}
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= e.opts.BreakerThreshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.reopens = time.Now().Add(e.opts.BreakerCooldown)
	}
}

// jittered adds up to +50% random jitter so retries against a recovering
// device don't synchronize.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Breakers reports every device breaker that has seen traffic, sorted by
// device ID.
func (e *Env) Breakers() []BreakerStats {
	e.mu.Lock()
	out := make([]BreakerStats, 0, len(e.breakers))
	for id, b := range e.breakers {
		out = append(out, BreakerStats{Device: id, State: b.state.String(), Fails: b.fails,
			Opens: b.opens, HalfOpens: b.halfOpens, ShortCircuits: b.shorts})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// BreakerState reports one device's breaker position (closed if the device
// has never been actuated).
func (e *Env) BreakerState(id device.ID) BreakerState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b := e.breakers[id]; b != nil {
		return b.state
	}
	return BreakerClosed
}

// ShortCircuits counts commands failed fast on an open breaker.
func (e *Env) ShortCircuits() int64 { return e.shortCircuits.Load() }

// DeviceState implements visibility.Env.
func (e *Env) DeviceState(d device.ID) (device.State, error) {
	st, err := e.actuator.Status(d)
	if e.OnContact != nil {
		e.OnContact(d, err == nil)
	}
	return st, err
}

// Wait blocks until every in-flight command goroutine has posted its
// completion. Processing those completions may chain further commands (a
// routine's next step, an abort rollback), so graceful shutdown alternates
// Wait with a mailbox drain until Idle reports true. Wait polls — it only
// runs on shutdown paths.
func (e *Env) Wait() {
	for !e.Idle() {
		time.Sleep(100 * time.Microsecond)
	}
}

// Idle reports whether no command goroutines are in flight. Exec increments
// the count synchronously, so a caller that has just drained the mailbox
// (every queued completion applied, any chained Exec already counted) sees
// Idle only when the cascade has truly finished.
func (e *Env) Idle() bool { return e.inflight.Load() == 0 }
