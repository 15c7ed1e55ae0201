// Package hub implements the SafeHome edge hub of Fig 11 as a front-end
// over a single wall-clock home runtime (internal/runtime): the routine
// bank, the routine dispatcher, the concurrency controller for the
// configured visibility model, the device driver and the failure detector
// all live inside the runtime, and the hub exposes them through a typed API
// and HTTP surface.
//
// There is no hub lock: every mutation is a typed op posted into the
// runtime's mailbox, and the live environment delivers command completions
// and timer callbacks through the same mailbox, so the controller keeps its
// single-threaded execution model end to end; reads answer from the
// runtime's published snapshot. When the mailbox is full, mutating
// operations return ErrOverloaded (HTTP 429) instead of blocking.
// The hub also hosts the multi-tenant HTTP surface (ManagerHandler) that
// routes home-scoped requests through internal/manager.
//
// See ARCHITECTURE.md at the repository root for how the hub layers between
// the public API, the manager and the unified home runtime.
package hub

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/failure"
	"safehome/internal/journal"
	"safehome/internal/live"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// Errors surfaced by the runtime's admission control, re-exported for the
// hub's callers (the root safehome package and the HTTP layer).
var (
	// ErrOverloaded is returned when the hub's mailbox is full (HTTP 429).
	ErrOverloaded = rt.ErrOverloaded
	// ErrClosed is returned by mutating calls after Close.
	ErrClosed = rt.ErrClosed
	// ErrPoisoned is returned to operations parked in the runtime when its
	// loop panicked; the hub's supervisor is already restarting it (HTTP 503).
	ErrPoisoned = rt.ErrPoisoned
)

// Config configures a hub.
type Config struct {
	// Model is the visibility model to enforce (default EV).
	Model visibility.Model
	// Scheduler is the EV scheduling policy (default Timeline).
	Scheduler visibility.SchedulerKind
	// DefaultShort is the assumed hold of zero-duration commands.
	DefaultShort time.Duration
	// FailureInterval is the failure detector's probe period (default 1s).
	FailureInterval time.Duration
	// EventLog caps the in-memory activity log (default 1024 events).
	EventLog int
	// MailboxDepth bounds the runtime's operation mailbox (default 128).
	MailboxDepth int
	// Batch is the maximum operations drained per loop wakeup (default 32).
	Batch int
	// DataDir enables durability: the hub's runtime group-commits accepted
	// operations, outcomes, committed states and event sequence numbers to a
	// write-ahead journal under this directory and recovers them on the next
	// start with the same directory (routines in flight at a crash come back
	// Aborted). Empty keeps the hub memory-only.
	DataDir string
	// Journal tunes the write-ahead journal; only meaningful with DataDir.
	// The runtime appends through a hub-owned writer under <DataDir>/wal that
	// survives supervised restarts. Journal.Mode selects the durability tier:
	// the hub defaults to sync (acknowledged ⇒ fsynced, no group-commit
	// window — with one home, coalescing buys nothing); group opens the
	// window; async acknowledges ahead of the disk behind
	// Journal.AsyncWindowBytes.
	Journal journal.Options
	// Actuation tunes the device path: per-command timeout, retry policy and
	// the per-device circuit breaker that sheds commands to devices that keep
	// timing out instead of tying the loop's in-flight slots to them.
	Actuation live.Options
	// Supervisor tunes panic recovery: when the runtime's loop panics the hub
	// poisons it, tears it down and restarts it (from the journal when
	// durable, empty otherwise) with capped exponential backoff, then
	// quarantines after MaxRestarts consecutive failures. The zero value
	// enables supervision with defaults; set Supervisor.Disable to quarantine
	// the hub on its first poison instead of restarting it.
	Supervisor rt.SupervisorConfig
}

func (c Config) normalized() Config {
	if c.DefaultShort <= 0 {
		c.DefaultShort = visibility.DefaultShortCommand
	}
	if c.FailureInterval <= 0 {
		c.FailureInterval = failure.DefaultInterval
	}
	if c.EventLog <= 0 {
		c.EventLog = 1024
	}
	return c
}

// Hub is a running SafeHome instance: a thin front-end over one home
// runtime, held through a supervised slot. The slot swaps the runtime
// pointer atomically when a panic poisons a generation, so API calls racing
// a restart see either the old (poisoned, fast-failing) or the new runtime —
// never a torn hub.
type Hub struct {
	cfg      Config
	reg      *device.Registry
	actuator device.Actuator
	slot     *rt.Slot

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	detecting atomic.Bool // Start was called: restarted generations re-arm the detector

	// Durability wiring: a durable hub owns one writer that outlives
	// supervised runtime generations (each rebuilt runtime re-attaches to it).
	durability journal.Mode
	writer     *journal.GroupWriter

	// tel is the /metrics surface. It outlives runtime generations, so a
	// supervised restart keeps appending to the same histograms.
	tel *hubTelemetry

	started time.Time
}

// New builds a hub controlling the registered devices through the actuator
// (the kasa driver for networked plugs, or an in-memory fleet for tests and
// demos).
func New(cfg Config, reg *device.Registry, actuator device.Actuator) (*Hub, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, fmt.Errorf("hub: no devices registered")
	}
	if actuator == nil {
		return nil, fmt.Errorf("hub: nil actuator")
	}
	cfg = cfg.normalized()

	h := &Hub{
		cfg:      cfg,
		reg:      reg,
		actuator: actuator,
		stop:     make(chan struct{}),
		started:  time.Now(),
	}
	h.tel = newHubTelemetry(h)
	sv := rt.NewSupervision(cfg.Supervisor, h.tel.sup, h.stop)
	h.slot = sv.NewSlot(cfg.DataDir, h.buildRuntime)
	if cfg.DataDir != "" {
		h.durability = journal.ResolveMode(cfg.Journal, journal.ModeSync)
		wopts := journal.WriterOptionsFor(cfg.Journal, h.durability)
		wopts.Stats, wopts.OnCycle = h.tel.jstats, h.tel.onCycle
		writers, err := journal.OpenWriters(filepath.Join(cfg.DataDir, "wal"), 1, wopts)
		if err != nil {
			return nil, fmt.Errorf("hub: %w", err)
		}
		h.writer = writers[0]
	}
	runtime, err := h.slot.Build()
	if err != nil {
		if h.writer != nil {
			h.writer.Abandon()
		}
		return nil, fmt.Errorf("hub: %w", err)
	}
	h.slot.Store(runtime)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sv.Run(func(ok bool) {
			if ok && h.detecting.Load() {
				h.slot.Load().Start() // a restarted generation re-arms the detector
			}
		})
	}()
	return h, nil
}

// buildRuntime constructs one runtime generation. With a DataDir each new
// generation recovers the previous one's acknowledged work from the journal.
func (h *Hub) buildRuntime(onPoison func(error)) (*rt.HomeRuntime, error) {
	cfg := rt.Config{
		ID:              "hub",
		Model:           h.cfg.Model,
		Scheduler:       h.cfg.Scheduler,
		DefaultShort:    h.cfg.DefaultShort,
		FailureInterval: h.cfg.FailureInterval,
		EventLog:        h.cfg.EventLog,
		MailboxDepth:    h.cfg.MailboxDepth,
		Batch:           h.cfg.Batch,
		DataDir:         h.cfg.DataDir,
		Journal:         h.cfg.Journal,
		Actuation:       h.cfg.Actuation,
		OnPoison:        onPoison,
		Metrics:         h.tel.loop,
	}
	cfg.Journal.Mode = h.durability
	cfg.Journal.Writer = h.writer
	cfg.Journal.Stats = h.tel.jstats
	return rt.NewLive(cfg, h.reg, h.actuator)
}

// Start launches the failure detector's probe loop.
func (h *Hub) Start() {
	h.detecting.Store(true)
	h.slot.Load().Start()
}

// Close stops background activity (supervision, failure detection and
// scheduled triggers), waits for in-flight commands and drains the runtime.
// After Close, mutating calls return ErrClosed; reads answer from the
// quiesced state.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.stop) })
	h.wg.Wait()
	h.slot.Load().Close()
	if h.writer != nil {
		_ = h.writer.Close() // after the runtime: its Close waits on the covering sync
	}
}

// Crash kills the hub without draining: no shutdown checkpoint, no waiting
// for in-flight routines — the SIGKILL-equivalent for crash-recovery drills.
// Operations parked in the mailbox are answered ErrClosed. A hub running
// with a data directory recovers acknowledged work exactly when a new hub
// reopens the same directory; everything in flight comes back aborted.
func (h *Hub) Crash() {
	h.closeOnce.Do(func() { close(h.stop) })
	h.wg.Wait()
	h.slot.Load().Crash()
	if h.writer != nil {
		h.writer.Abandon() // no final sync: only covered bytes survive
	}
}

// Health reports the hub's supervision state: ok, degraded (serving but the
// journal died — memory-only until restart), restarting (poisoned, being
// rebuilt) or quarantined (restart budget exhausted, or poisoned with
// supervision disabled).
func (h *Hub) Health() rt.HomeHealth { return h.slot.Health() }

// Serving reports whether the hub can take requests right now.
func (h *Hub) Serving() bool { return h.slot.Serving() }

// Model returns the hub's visibility model.
func (h *Hub) Model() visibility.Model { return h.cfg.Model }

// Registry returns the device registry.
func (h *Hub) Registry() *device.Registry { return h.reg }

// Detector exposes the failure detector (CLI status, tests).
func (h *Hub) Detector() *failure.Detector { return h.slot.Load().Detector() }

// Runtime exposes the current home runtime generation (mailbox stats,
// tests). Callers should not cache it across a restart.
func (h *Hub) Runtime() *rt.HomeRuntime { return h.slot.Load() }

// SubmitRoutine validates and submits a routine for execution. It returns
// ErrOverloaded when the hub's mailbox is full.
func (h *Hub) SubmitRoutine(r *routine.Routine) (routine.ID, error) {
	return h.slot.Load().Submit(r)
}

// SubmitSpec parses a Fig 10-style JSON routine document and submits it.
func (h *Hub) SubmitSpec(spec []byte) (routine.ID, error) {
	r, err := routine.ParseSpec(spec)
	if err != nil {
		return routine.None, err
	}
	return h.SubmitRoutine(r)
}

// StoreRoutine saves a routine definition in the routine bank. On a durable
// hub the definition is journaled, so stored routines survive restarts.
func (h *Hub) StoreRoutine(r *routine.Routine) error {
	return h.slot.Load().StoreRoutine(r)
}

// StoredRoutines lists the names in the routine bank.
func (h *Hub) StoredRoutines() []string { return h.slot.Load().Bank().Names() }

// Trigger dispatches a stored routine by name (the "Routine Dispatcher" of
// Fig 11 invoked by a user or an automation trigger).
func (h *Hub) Trigger(name string) (routine.ID, error) {
	r, ok := h.slot.Load().Bank().Get(name)
	if !ok {
		return routine.None, fmt.Errorf("hub: no stored routine named %q", name)
	}
	return h.SubmitRoutine(r)
}

// Results returns per-routine outcomes in submission order.
func (h *Hub) Results() []visibility.Result { return h.slot.Load().Results() }

// Result returns one routine's outcome.
func (h *Hub) Result(id routine.ID) (visibility.Result, bool) { return h.slot.Load().Result(id) }

// PendingCount returns the number of unfinished routines.
func (h *Hub) PendingCount() int { return h.slot.Load().PendingCount() }

// Events returns a copy of the recent activity log.
func (h *Hub) Events() []visibility.Event { return h.slot.Load().Events() }

// EventsSince returns the retained events with sequence number >= since and
// the cursor to pass on the next poll, so pollers fetch only the tail.
func (h *Hub) EventsSince(since uint64) ([]visibility.Event, uint64) {
	return h.slot.Load().EventsSince(since)
}

// DeviceStatus describes one device for the API and CLI. Breaker is the
// device's circuit-breaker state ("closed" when healthy; "open" while the
// actuation path sheds commands to it; "half-open" while probing recovery).
type DeviceStatus struct {
	Info    device.Info  `json:"info"`
	State   device.State `json:"state"`
	Up      bool         `json:"up"`
	Breaker string       `json:"breaker,omitempty"`
}

// Devices reports every device's committed state (the controller's view),
// liveness and actuation-path breaker state.
func (h *Hub) Devices() []DeviceStatus {
	runtime := h.slot.Load()
	committed := runtime.CommittedStates()
	detector := runtime.Detector()
	breakers := make(map[device.ID]string)
	for _, b := range runtime.Breakers() {
		breakers[b.Device] = b.State
	}

	infos := h.reg.All()
	out := make([]DeviceStatus, 0, len(infos))
	for _, info := range infos {
		st, ok := committed[info.ID]
		if !ok {
			st = info.Initial
		}
		out = append(out, DeviceStatus{
			Info:    info,
			State:   st,
			Up:      detector.Up(info.ID),
			Breaker: breakers[info.ID],
		})
	}
	return out
}

// Status summarizes the hub for the API and CLI.
type Status struct {
	Model     string              `json:"model"`
	Scheduler string              `json:"scheduler"`
	Health    rt.HomeHealth       `json:"health"`
	Poisons   int64               `json:"poisons,omitempty"`
	Restarts  int64               `json:"restarts,omitempty"`
	LastError string              `json:"last_error,omitempty"`
	Devices   int                 `json:"devices"`
	Routines  int                 `json:"routines"`
	Pending   int                 `json:"pending"`
	Active    int                 `json:"active"`
	Stored    int                 `json:"stored_routines"`
	Mailbox   rt.MailboxStats     `json:"mailbox"`
	Breakers  []live.BreakerStats `json:"breakers,omitempty"`
	Durable   bool                `json:"durable,omitempty"`
	// Durability is the journal tier in effect (sync/group/async).
	Durability string           `json:"durability,omitempty"`
	LastPoison *rt.PoisonRecord `json:"last_poison,omitempty"`
	Since      time.Time        `json:"since"`
}

// Status returns the hub summary. It answers while the hub is restarting or
// quarantined too, from the last generation's published snapshot.
func (h *Hub) Status() Status {
	runtime := h.slot.Load()
	c := runtime.Counts()
	st := Status{
		Model:      h.cfg.Model.String(),
		Scheduler:  h.cfg.Scheduler.String(),
		Health:     h.Health(),
		Poisons:    h.tel.sup.Poisons.Value(),
		Restarts:   h.slot.Restarts(),
		Devices:    h.reg.Len(),
		Routines:   c.Routines,
		Pending:    c.Pending,
		Active:     c.Active,
		Stored:     runtime.Bank().Len(),
		Mailbox:    runtime.Mailbox(),
		Breakers:   runtime.Breakers(),
		Durable:    runtime.Durable(),
		LastPoison: h.slot.LastPoison(),
		Since:      h.started,
	}
	if h.cfg.DataDir != "" {
		st.Durability = h.durability.String()
	}
	if err := h.slot.LastError(); err != nil {
		st.LastError = err.Error()
	}
	return st
}
