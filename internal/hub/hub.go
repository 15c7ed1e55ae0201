// Package hub implements the SafeHome edge hub of Fig 11 as a facade over a
// one-shard manager (internal/manager) holding a single device-bound,
// wall-clock home runtime (internal/runtime): the routine bank, the routine
// dispatcher, the concurrency controller for the configured visibility
// model, the device driver and the failure detector all live inside the
// runtime, the manager owns its supervision, journal writer and /metrics
// registry, and the hub exposes the home through a typed API and HTTP
// surface.
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
	"time"

	"safehome/internal/device"
	"safehome/internal/failure"
	"safehome/internal/journal"
	"safehome/internal/live"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
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
	// Model is the visibility model to enforce. The zero value is WV (the
	// status-quo model), as in every layer.
	Model visibility.Model
	// Scheduler is the EV scheduling policy (default Timeline).
	Scheduler visibility.SchedulerKind
	// DefaultShort is the assumed hold of zero-duration commands.
	DefaultShort time.Duration
	// FailureInterval is the failure detector's probe period (default 1s).
	FailureInterval time.Duration
	// MailboxDepth bounds the runtime's operation mailbox (default 128).
	MailboxDepth int
	// Batch is the maximum operations drained per loop wakeup (default 32).
	Batch int
	// DataDir enables durability: the hub's runtime journals accepted
	// operations, outcomes, committed states and event sequence numbers here
	// and recovers them on the next start (routines in flight at a crash come
	// back Aborted), in the manager's layout for the one home "hub" (the
	// manager converts an older build's directory once, refuses a newer
	// build's). Empty keeps the hub memory-only.
	DataDir string
	// Journal tunes the write-ahead journal; only meaningful with DataDir.
	// Journal.Mode selects the durability tier: the hub defaults to sync
	// (acknowledged ⇒ fsynced, no group-commit window — with one home,
	// coalescing buys nothing); group opens the window; async acknowledges
	// ahead of the disk behind Journal.AsyncWindowBytes.
	Journal journal.Options

	// supervisor tunes panic recovery as for manager.Config.Supervisor
	// (tests shorten the backoff; the zero value restarts with defaults).
	supervisor rt.SupervisorConfig
}

// homeID names the hub's one home: its runtime, its journal frames and its
// directory under <DataDir>/homes.
const homeID manager.HomeID = "hub"

// Hub is a running SafeHome instance: a facade over a one-shard manager
// holding one device-bound home. Reads and mutations go through the home's
// supervised slot, so API calls racing a restart see either the old
// (poisoned, fast-failing) or the new generation — never a torn hub.
type Hub struct {
	m    *manager.Manager
	slot *rt.Slot
}

// New builds a hub controlling the registered devices through the actuator
// (the kasa driver for networked plugs, or an in-memory fleet for tests and
// demos).
func New(cfg Config, reg *device.Registry, actuator device.Actuator) (*Hub, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, fmt.Errorf("hub: no devices registered")
	}
	cfg.Journal.Mode = journal.ResolveMode(cfg.Journal, journal.ModeSync)
	m := manager.New(manager.Config{
		Shards:     1,
		QueueDepth: cfg.MailboxDepth,
		Batch:      cfg.Batch,
		EventLog:   1024,
		DataDir:    cfg.DataDir,
		Journal:    cfg.Journal,
		Supervisor: cfg.supervisor,
		Home: manager.HomeConfig{
			Model:           cfg.Model,
			Scheduler:       cfg.Scheduler,
			DefaultShort:    cfg.DefaultShort,
			FailureInterval: cfg.FailureInterval,
			Actuator:        func(manager.HomeID, *device.Registry) device.Actuator { return actuator },
		},
	})
	// AddHome refuses when the manager could not open its writer fleet:
	// another live owner holds the data directory.
	if err := m.AddHome(homeID, reg.All()...); err != nil {
		m.Crash()
		return nil, fmt.Errorf("hub: %w", err)
	}
	slot, _ := m.Slot(homeID) // just added: the lookup cannot miss
	return &Hub{m: m, slot: slot}, nil
}

// Start launches the failure detector's probe loop. A supervised restart
// re-arms it on its own.
func (h *Hub) Start() { h.m.Start() }

// Close stops background activity (supervision, failure detection and
// scheduled triggers), waits for in-flight commands and drains the runtime.
// After Close, mutating calls return ErrClosed; reads answer from the
// quiesced state.
func (h *Hub) Close() { h.m.Close() }

// Crash kills the hub without draining — the SIGKILL-equivalent for
// crash-recovery drills. A hub reopened on the same data directory recovers
// the acknowledged work exactly; everything in flight comes back aborted.
func (h *Hub) Crash() { h.m.Crash() }

// Health reports the hub's supervision state: ok, degraded (serving but the
// journal died — memory-only until restart), restarting (poisoned, being
// rebuilt) or quarantined (restart budget exhausted, or poisoned with
// supervision disabled).
func (h *Hub) Health() rt.HomeHealth { return h.slot.Health() }

// Serving reports whether the hub can take requests right now.
func (h *Hub) Serving() bool { return h.slot.Serving() }

// Telemetry returns the manager's metrics registry, served at /metrics.
func (h *Hub) Telemetry() *telemetry.Registry { return h.m.Telemetry() }

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
// The parsed routine is handed over (HomeRuntime.SubmitOwned), not cloned.
func (h *Hub) SubmitSpec(spec []byte) (routine.ID, error) {
	r, err := routine.ParseSpec(spec)
	if err != nil {
		return routine.None, err
	}
	return h.slot.Load().SubmitOwned(r)
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
	return h.slot.Load().SubmitOwned(r) // Get returned a copy nobody else holds
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

// Triggers are the automation half of the routine dispatcher (Fig 11): the
// runtime owns them on its loop goroutine, and the hub delegates.

// TriggerHandle identifies a scheduled trigger.
type TriggerHandle = rt.TriggerHandle

// ScheduledTrigger describes one active trigger.
type ScheduledTrigger = rt.ScheduledTrigger

// ScheduleAfter dispatches the named stored routine once, after the delay.
// On a durable hub the trigger is journaled and survives a restart: a
// pending trigger re-arms with its remaining delay.
func (h *Hub) ScheduleAfter(name string, delay time.Duration) (TriggerHandle, error) {
	return h.slot.Load().ScheduleAfter(name, delay)
}

// ScheduleEvery dispatches the named stored routine repeatedly at the given
// interval, starting one interval from now.
func (h *Hub) ScheduleEvery(name string, interval time.Duration) (TriggerHandle, error) {
	return h.slot.Load().ScheduleEvery(name, interval)
}

// CancelTrigger stops a scheduled trigger; it is not an error if the handle
// is unknown or already fired. It returns ErrOverloaded/ErrClosed when the
// cancellation could not be enqueued.
func (h *Hub) CancelTrigger(handle TriggerHandle) error {
	return h.slot.Load().CancelTrigger(handle)
}

// Triggers lists active scheduled triggers.
func (h *Hub) Triggers() []ScheduledTrigger { return h.slot.Load().Triggers() }

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

	infos := runtime.Registry().All()
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
	hs, _ := h.m.HomeStatus(homeID) // the hub's home is never removed
	ms := h.m.Status()
	return Status{
		Model:      hs.Model,
		Scheduler:  runtime.Counts().Scheduler,
		Health:     hs.Health,
		Poisons:    ms.Poisons,
		Restarts:   hs.Restarts,
		LastError:  hs.LastError,
		Devices:    hs.Devices,
		Routines:   hs.Routines,
		Pending:    hs.Pending,
		Active:     hs.Active,
		Stored:     runtime.Bank().Len(),
		Mailbox:    runtime.Mailbox(),
		Breakers:   runtime.Breakers(),
		Durable:    runtime.Durable(),
		Durability: ms.Durability,
		LastPoison: hs.LastPoison,
		Since:      ms.Since,
	}
}
