package runtime

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// This file is self-healing supervision, written once for every owner of a
// home (each manager shard; the single-home hub is a one-shard manager). An owner holds each home
// through a Slot: the current runtime generation, the Supervisor that drives
// the poison → restart → quarantine state machine, and the poison forensics.
// The slot wires Config.OnPoison into every generation it builds, and the
// owner's Supervision queues poisoned slots for one restart goroutine. The
// runtime itself only knows how to die cleanly (poison.go); policy —
// backoff, restart budget, quarantine — lives here so every owner applies
// the same rules and exposes the same health vocabulary.

// HomeHealth is the supervision-level health of one home.
type HomeHealth string

const (
	// HealthOK: serving, journaling (if configured) intact.
	HealthOK HomeHealth = "ok"
	// HealthDegraded: serving, but a journal I/O error disabled durability
	// (the home runs memory-only until restarted).
	HealthDegraded HomeHealth = "degraded"
	// HealthRestarting: a panic poisoned the home; the supervisor is
	// rebuilding it from its journal. Mutations fail with 503 + Retry-After.
	HealthRestarting HomeHealth = "restarting"
	// HealthQuarantined: the restart budget is exhausted, or the home was
	// poisoned with supervision disabled; it stays down until an operator
	// intervenes (e.g. restarts the process).
	HealthQuarantined HomeHealth = "quarantined"
	// HealthFrozen: hibernated — the home took its final checkpoint and
	// released its runtime; the manager holds only a FrozenHome record. Any
	// submit, query or due trigger reanimates it from checkpoint + journal
	// tail. Reported without waking the home.
	HealthFrozen HomeHealth = "frozen"
)

// Supervisor restart-policy defaults.
const (
	// DefaultMaxRestarts is the consecutive-failure budget before quarantine.
	DefaultMaxRestarts = 5
	// DefaultRestartBackoff is the base of the exponential restart backoff.
	DefaultRestartBackoff = 50 * time.Millisecond
	// DefaultRestartBackoffCap caps the exponential restart backoff.
	DefaultRestartBackoffCap = 5 * time.Second
	// DefaultHealthyWindow is how long a home must stay up after a restart
	// for its consecutive-failure count to reset.
	DefaultHealthyWindow = time.Minute
)

// SupervisorConfig tunes the automatic restart of poisoned homes.
type SupervisorConfig struct {
	// MaxRestarts quarantines a home after this many consecutive failures —
	// poisons within HealthyWindow of the previous one, or rebuilds that
	// errored. 0 means DefaultMaxRestarts; negative quarantines on the first
	// poison.
	MaxRestarts int
	// Backoff is the base of the capped, jittered exponential delay before
	// each restart attempt (0 = DefaultRestartBackoff).
	Backoff time.Duration
	// BackoffCap bounds the exponential delay (0 = DefaultRestartBackoffCap).
	BackoffCap time.Duration
	// HealthyWindow resets the consecutive-failure count once a restarted
	// home stays up this long (0 = DefaultHealthyWindow).
	HealthyWindow time.Duration
	// Disable turns automatic restarts off: a poisoned home is quarantined at
	// once and stays down. The poison is still noticed and reported.
	Disable bool
}

// Normalized fills defaults into zero fields.
func (c SupervisorConfig) Normalized() SupervisorConfig {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = DefaultMaxRestarts
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultRestartBackoff
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = DefaultRestartBackoffCap
	}
	if c.HealthyWindow <= 0 {
		c.HealthyWindow = DefaultHealthyWindow
	}
	return c
}

// Supervisor tracks one home's poison/restart lifecycle on behalf of its
// Slot. Health, counters and NotePoison are safe from any goroutine;
// Restart must be called from the owner's single supervision goroutine.
type Supervisor struct {
	cfg      *SupervisorConfig // the owner's normalized policy, shared by its slots
	state    atomic.Int32      // supOK | supRestarting | supQuarantined
	restarts atomic.Int64
	lastErr  atomic.Value

	// Owned by the supervision goroutine:
	consecutive int
	lastPoison  time.Time
}

const (
	supOK int32 = iota
	supRestarting
	supQuarantined
)

// NotePoison records a poison event: health flips to restarting or, with
// supervision disabled, straight to quarantined. It reports whether a
// restart should be queued. Safe to call from the dying loop goroutine.
func (s *Supervisor) NotePoison(err error) (restart bool) {
	s.lastErr.Store(err)
	if s.cfg.Disable {
		s.state.Store(supQuarantined)
		return false
	}
	s.state.Store(supRestarting)
	return true
}

// Health folds the supervision state with the home's durability: a home
// whose journal died serves degraded until its next restart.
func (s *Supervisor) Health(durable bool) HomeHealth {
	switch s.state.Load() {
	case supRestarting:
		return HealthRestarting
	case supQuarantined:
		return HealthQuarantined
	}
	if !durable {
		return HealthDegraded
	}
	return HealthOK
}

// Serving reports whether the home should accept operations (ok or degraded).
func (s *Supervisor) Serving() bool { return s.state.Load() == supOK }

// Quarantined reports whether the restart budget is exhausted.
func (s *Supervisor) Quarantined() bool { return s.state.Load() == supQuarantined }

// Restarts counts successful supervised restarts.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// LastError returns the most recent poison or rebuild error.
func (s *Supervisor) LastError() error {
	if v := s.lastErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Restart drives one poison event through the restart policy: capped
// jittered exponential backoff before each attempt, rebuild retried until it
// succeeds or the consecutive-failure budget quarantines the home. stop
// aborts the wait (owner shutdown) leaving the home down. Reports whether
// the home is serving again.
func (s *Supervisor) Restart(stop <-chan struct{}, rebuild func() error) bool {
	now := time.Now()
	if !s.lastPoison.IsZero() && now.Sub(s.lastPoison) > s.cfg.HealthyWindow {
		s.consecutive = 0 // stayed up long enough: forgive earlier failures
	}
	s.lastPoison = now
	for {
		s.consecutive++
		if s.consecutive > s.cfg.MaxRestarts {
			s.state.Store(supQuarantined)
			return false
		}
		select {
		case <-stop:
			return false
		case <-time.After(s.backoff(s.consecutive)):
		}
		if err := rebuild(); err != nil {
			s.lastErr.Store(err)
			continue
		}
		s.restarts.Add(1)
		s.state.Store(supOK)
		return true
	}
}

// backoff computes the jittered exponential delay for the n-th consecutive
// attempt (n >= 1).
func (s *Supervisor) backoff(n int) time.Duration {
	d := s.cfg.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= s.cfg.BackoffCap {
			d = s.cfg.BackoffCap
			break
		}
	}
	// Up to +25% jitter so a shard's homes don't restart in lockstep.
	return d + time.Duration(rand.Int63n(int64(d)/4+1))
}

// Supervision is one owner's supervision wiring — each manager shard has
// its own: the restart policy its slots share, the counters
// they bump, and the queue of poisoned slots that Run restarts one at a time.
type Supervision struct {
	cfg     SupervisorConfig
	metrics *SupervisionMetrics
	queue   chan *Slot
	stop    <-chan struct{}
}

// NewSupervision builds an owner's supervision wiring. stop is the owner's
// shutdown signal: it ends Run and abandons a restart's backoff wait.
func NewSupervision(cfg SupervisorConfig, m *SupervisionMetrics, stop <-chan struct{}) *Supervision {
	// The buffer absorbs a burst of poisons across a shard's homes while Run
	// sits in one restart's backoff; past it, enqueue spills to goroutines.
	return &Supervision{cfg: cfg.Normalized(), metrics: m, queue: make(chan *Slot, 64), stop: stop}
}

// Run restarts poisoned slots one at a time on the owner's goroutine until
// stop closes. With supervision disabled nothing is ever queued and Run
// returns at once.
func (v *Supervision) Run() {
	if v.cfg.Disable {
		return
	}
	for {
		select {
		case <-v.stop:
			return
		case s := <-v.queue:
			s.Restart(v.stop)
		}
	}
}

// enqueue hands a poisoned slot to Run without ever blocking the dying loop:
// a full queue spills to a goroutine that waits for room or shutdown.
func (v *Supervision) enqueue(s *Slot) {
	select {
	case v.queue <- s:
	default:
		go func() {
			select {
			case v.queue <- s:
			case <-v.stop:
			}
		}()
	}
}

// Slot is one supervised home as its owner holds it: the current runtime
// generation behind one atomic pointer (nil while a manager home is
// hibernated), the Supervisor driving its lifecycle, and the forensics of
// its last poisoning. Every generation the slot builds reports its poison to
// the slot, so no owner can leave a dead home looking healthy.
type Slot struct {
	cur        atomic.Pointer[HomeRuntime]
	lastPoison atomic.Pointer[PoisonRecord]
	sup        *Supervisor
	owner      *Supervision
	build      func(onPoison func(error)) (*HomeRuntime, error)
}

// NewSlot makes a slot with no generation yet; build constructs one with
// Config.OnPoison set to the hook it is handed. dir is the home's data
// directory ("" when memory-only): a poison record a previous process left
// there surfaces until a clean restart.
func (v *Supervision) NewSlot(dir string, build func(onPoison func(error)) (*HomeRuntime, error)) *Slot {
	s := &Slot{sup: &Supervisor{cfg: &v.cfg}, owner: v, build: build}
	if dir != "" {
		s.lastPoison.Store(LoadPoisonRecord(dir))
	}
	return s
}

// Build constructs a generation wired to the slot's poison hook; Store
// publishes it.
func (s *Slot) Build() (*HomeRuntime, error) { return s.build(s.onPoison) }

// Store publishes a generation (nil: the home hibernated).
func (s *Slot) Store(home *HomeRuntime) { s.cur.Store(home) }

// Load returns the current generation, nil while the home is hibernated.
// Callers should not cache it across a restart.
func (s *Slot) Load() *HomeRuntime { return s.cur.Load() }

// Health folds supervision state with the generation's durability: degraded
// means a configured journal died and the home serves memory-only; a slot
// with no generation is hibernated.
func (s *Slot) Health() HomeHealth {
	home := s.cur.Load()
	if home == nil {
		return HealthFrozen
	}
	return s.sup.Health(home.JournalError() == nil)
}

// Serving reports whether the home accepts operations (ok or degraded).
func (s *Slot) Serving() bool { return s.sup.Serving() }

// Quarantined reports whether the home is down for good.
func (s *Slot) Quarantined() bool { return s.sup.Quarantined() }

// Restarts counts the home's successful supervised restarts.
func (s *Slot) Restarts() int64 { return s.sup.Restarts() }

// LastError explains an unhealthy home: the last poison or rebuild error,
// else the journal error that degraded it. Nil while the home is healthy.
func (s *Slot) LastError() error {
	if s.Health() == HealthOK {
		return nil
	}
	if err := s.sup.LastError(); err != nil {
		return err
	}
	if home := s.cur.Load(); home != nil {
		return home.JournalError()
	}
	return nil
}

// LastPoison returns the forensics of the home's last poisoning (cleared by a
// clean restart), else the current generation's own record.
func (s *Slot) LastPoison() *PoisonRecord {
	if rec := s.lastPoison.Load(); rec != nil {
		return rec
	}
	if home := s.cur.Load(); home != nil {
		return home.PoisonRecord()
	}
	return nil
}

// onPoison is the Config.OnPoison of every generation the slot builds. It
// runs on the dying loop goroutine and never blocks.
func (s *Slot) onPoison(err error) {
	if home := s.cur.Load(); home != nil {
		if rec := home.PoisonRecord(); rec != nil {
			s.lastPoison.Store(rec)
		}
	}
	m := s.owner.metrics
	m.Poisons.Inc()
	if s.sup.NotePoison(err) {
		s.owner.enqueue(s)
	} else {
		m.Quarantines.Inc()
	}
}

// Restart joins the dead loop (its teardown already released the journal),
// then runs the Supervisor's restart policy, publishing each generation it
// rebuilds. A clean restart retires the poison forensics, on disk and in the
// cache.
func (s *Slot) Restart(stop <-chan struct{}) {
	m := s.owner.metrics
	m.Restarting.Add(1)
	defer m.Restarting.Add(-1)
	if home := s.cur.Load(); home != nil {
		home.Close()
	}
	var home *HomeRuntime
	ok := s.sup.Restart(stop, func() (err error) {
		if home, err = s.Build(); err == nil {
			s.cur.Store(home)
		}
		return err
	})
	switch {
	case ok:
		m.Restarts.Inc()
		if dir := home.cfg.DataDir; dir != "" {
			ClearPoisonRecord(dir)
		}
		s.lastPoison.Store(nil)
	case s.sup.Quarantined():
		m.Quarantines.Inc()
	}
}
