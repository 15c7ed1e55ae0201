package safehome

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"safehome/internal/device"
	"safehome/internal/hub"
	"safehome/internal/journal"
	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/sim"
	"safehome/internal/visibility"
)

// Config selects the visibility model and tuning knobs of a home.
type Config struct {
	// Model is the visibility model to enforce. The zero value is WV (the
	// status-quo model); most users want EV.
	Model Model
	// Scheduler is the EV scheduling policy (default: Timeline).
	Scheduler SchedulerKind
	// DisablePreLease / DisablePostLease turn off lock leasing (EV only);
	// both enabled by default. Simulated homes only: NewLiveHome refuses
	// either.
	DisablePreLease  bool
	DisablePostLease bool
	// DefaultShortCommand is the assumed exclusive-hold duration of commands
	// with no explicit duration (default 100 ms, the paper's τ_timeout).
	DefaultShortCommand time.Duration
	// ActuationLatency adds a fixed per-command latency, modelling
	// device/network round trips. Simulated homes only: NewLiveHome
	// refuses it.
	ActuationLatency time.Duration
	// FailureDetectionInterval is the probe period of a live home's failure
	// detector (default 1 s).
	FailureDetectionInterval time.Duration
	// MailboxDepth bounds a live home's operation mailbox (default 128).
	// When the mailbox is full, mutating calls return ErrOverloaded instead
	// of blocking.
	MailboxDepth int
	// MailboxBatch is the maximum operations a live home drains per loop
	// wakeup (default 32), amortizing channel signaling under load.
	MailboxBatch int
	// DataDir makes a live home durable: accepted routines, outcomes,
	// committed device states and event sequence numbers are group-committed
	// to a write-ahead journal under this directory, and a home restarted
	// with the same directory recovers them exactly — routines in flight at
	// the crash are aborted with rollback, per the paper's failure
	// semantics. Empty (the default) keeps the home memory-only. Simulated
	// homes ignore it.
	DataDir string
	// Durability selects the journal's durability tier when DataDir is set:
	// "sync" (the default — every acknowledgement waits for its covering
	// fsync, which starts at once), "group" (the same acknowledged ⇒
	// durable contract with a short commit window first; for a single home
	// the two coincide), or
	// "async" (acknowledge ahead of the disk; a crash may lose the last
	// ~256 KiB of acknowledged work, but never reorders it). Unknown values
	// fail NewLiveHome.
	Durability string
	// Observer, if set, receives every controller event. Simulated homes
	// only: NewLiveHome refuses it.
	Observer Observer
}

func (c Config) options() visibility.Options {
	opts := visibility.DefaultOptions(c.Model)
	opts.Scheduler = c.Scheduler
	opts.PreLease = !c.DisablePreLease
	opts.PostLease = !c.DisablePostLease
	if c.DefaultShortCommand > 0 {
		opts.DefaultShort = c.DefaultShortCommand
	}
	opts.Observer = c.Observer
	return opts
}

// --- simulated home -------------------------------------------------------------

// SimulatedHome runs SafeHome over an in-memory device fleet on a virtual
// clock. Submissions, failures and restarts are scheduled at virtual-time
// offsets; Run drains the event queue and returns how much virtual time
// passed. SimulatedHome is not safe for concurrent use.
type SimulatedHome struct {
	cfg   Config
	sim   *sim.Sim
	fleet *Fleet
	ctrl  visibility.Controller
}

// NewSimulatedHome builds a simulated home over the given devices.
func NewSimulatedHome(cfg Config, devices ...DeviceInfo) (*SimulatedHome, error) {
	if len(devices) == 0 {
		return nil, errors.New("safehome: a home needs at least one device")
	}
	fleet := NewFleet(devices...)
	s := sim.NewAtEpoch()
	env := visibility.NewSimEnv(s, fleet)
	env.ActuationLatency = cfg.ActuationLatency
	h := &SimulatedHome{cfg: cfg, sim: s, fleet: fleet}
	h.ctrl = visibility.New(env, fleet.Snapshot(), cfg.options())
	return h, nil
}

// Now returns the current virtual time.
func (h *SimulatedHome) Now() time.Time { return h.sim.Now() }

// Submit submits a routine for execution at the current virtual time.
func (h *SimulatedHome) Submit(r *Routine) (RoutineID, error) {
	if err := r.Validate(nil); err != nil {
		return 0, err
	}
	return h.ctrl.Submit(r), nil
}

// SubmitAfter schedules a routine submission after the given virtual delay.
func (h *SimulatedHome) SubmitAfter(d time.Duration, r *Routine) error {
	if err := r.Validate(nil); err != nil {
		return err
	}
	h.sim.Post(d, func() { h.ctrl.Submit(r) })
	return nil
}

// FailDeviceAfter injects a fail-stop failure of the device after the given
// virtual delay; RestoreDeviceAfter injects the matching restart.
func (h *SimulatedHome) FailDeviceAfter(d time.Duration, id DeviceID) {
	h.sim.Post(d, func() {
		if err := h.fleet.Fail(id); err == nil {
			h.ctrl.NotifyFailure(id)
		}
	})
}

// RestoreDeviceAfter injects a device restart after the given virtual delay.
func (h *SimulatedHome) RestoreDeviceAfter(d time.Duration, id DeviceID) {
	h.sim.Post(d, func() {
		if err := h.fleet.Restore(id); err == nil {
			h.ctrl.NotifyRestart(id)
		}
	})
}

// Run drains the simulation (all submitted routines finish) and returns the
// virtual time that elapsed.
func (h *SimulatedHome) Run() time.Duration {
	start := h.sim.Now()
	h.sim.Run()
	return h.sim.Now().Sub(start)
}

// RunFor advances the simulation by at most the given virtual duration.
func (h *SimulatedHome) RunFor(d time.Duration) {
	h.sim.RunUntil(h.sim.Now().Add(d))
}

// Results returns per-routine outcomes in submission order.
func (h *SimulatedHome) Results() []Result { return h.ctrl.Results() }

// Result returns one routine's outcome.
func (h *SimulatedHome) Result(id RoutineID) (Result, bool) { return h.ctrl.Result(id) }

// PendingCount returns the number of unfinished routines.
func (h *SimulatedHome) PendingCount() int { return h.ctrl.PendingCount() }

// DeviceStates returns the ground-truth state of every device.
func (h *SimulatedHome) DeviceStates() map[DeviceID]DeviceState { return h.fleet.Snapshot() }

// DeviceState returns one device's ground-truth state.
func (h *SimulatedHome) DeviceState(id DeviceID) DeviceState {
	st, _ := h.fleet.State(id)
	return st
}

// Fleet exposes the underlying simulated fleet (e.g. for custom failure
// drills or assertions in tests).
func (h *SimulatedHome) Fleet() *Fleet { return h.fleet }

// Model returns the home's visibility model.
func (h *SimulatedHome) Model() Model { return h.ctrl.Model() }

// --- live home -------------------------------------------------------------------

// DeviceStatus describes a device's state and liveness in a live home.
type DeviceStatus = hub.DeviceStatus

// HubStatus summarizes a live home.
type HubStatus = hub.Status

// LiveHome runs SafeHome in real time on an edge device: routines actuate
// devices through the provided Actuator (e.g. the Kasa driver), the failure
// detector probes devices periodically, and an HTTP API is available for
// users and triggers. LiveHome is safe for concurrent use: every mutation
// is serialized through the home runtime's typed mailbox, and when the
// mailbox is full mutating calls return ErrOverloaded (back off and retry)
// instead of blocking indefinitely. Reads (Results, Status, Devices, Events)
// answer from the home loop's latest published snapshot without touching
// the mailbox, and already reflect every mutation acknowledged to any
// caller.
type LiveHome struct {
	// m is a one-home manager (hub.New); mutations go through it, reads
	// through the home's slot, so they answer from the last generation while
	// a supervised restart is in progress.
	m    *manager.Manager
	slot *rt.Slot
}

// Admission-control errors returned by a live home's mutating calls.
var (
	// ErrOverloaded means the home's mailbox is full; back off and retry.
	ErrOverloaded = hub.ErrOverloaded
	// ErrHomeClosed means the home has been closed.
	ErrHomeClosed = hub.ErrClosed
)

// NewLiveHome builds a live home controlling the given devices through the
// actuator.
func NewLiveHome(cfg Config, actuator Actuator, devices ...DeviceInfo) (*LiveHome, error) {
	if actuator == nil {
		return nil, errors.New("safehome: live home needs an actuator")
	}
	switch {
	case cfg.DisablePreLease:
		return nil, errors.New("safehome: DisablePreLease applies to simulated homes only")
	case cfg.DisablePostLease:
		return nil, errors.New("safehome: DisablePostLease applies to simulated homes only")
	case cfg.Observer != nil:
		return nil, errors.New("safehome: Observer applies to simulated homes only")
	case cfg.ActuationLatency != 0:
		return nil, errors.New("safehome: ActuationLatency applies to simulated homes only")
	}
	var jopts journal.Options
	if cfg.Durability != "" {
		mode, err := journal.ParseMode(cfg.Durability)
		if err != nil {
			return nil, fmt.Errorf("safehome: %w", err)
		}
		jopts.Mode = mode
	}
	m, err := hub.New(hub.Config{
		Model:           cfg.Model,
		Scheduler:       cfg.Scheduler,
		DefaultShort:    cfg.DefaultShortCommand,
		FailureInterval: cfg.FailureDetectionInterval,
		MailboxDepth:    cfg.MailboxDepth,
		Batch:           cfg.MailboxBatch,
		DataDir:         cfg.DataDir,
		Journal:         jopts,
	}, NewRegistry(devices...), actuator)
	if err != nil {
		return nil, err
	}
	slot, _ := m.Slot(hub.Home) // New just added it: the lookup cannot miss
	return &LiveHome{m: m, slot: slot}, nil
}

// Start launches background activity (the failure detector).
func (h *LiveHome) Start() { h.m.Start() }

// Close stops background activity and waits for in-flight commands.
func (h *LiveHome) Close() { h.m.Close() }

// Crash kills the home without draining — no shutdown checkpoint, no waiting
// for in-flight routines; operations parked in the mailbox are answered
// ErrHomeClosed. It is the SIGKILL-equivalent for crash-recovery drills: a
// home running with Config.DataDir recovers all acknowledged work exactly
// when a new home reopens the same directory, and whatever was in flight at
// the crash comes back Aborted with rollback.
func (h *LiveHome) Crash() { h.m.Crash() }

// Submit submits a routine for immediate execution.
func (h *LiveHome) Submit(r *Routine) (RoutineID, error) { return h.m.Submit(hub.Home, r) }

// Store saves a routine definition in the routine bank.
func (h *LiveHome) Store(r *Routine) error { return h.m.StoreRoutine(hub.Home, r) }

// Trigger dispatches a stored routine by name.
func (h *LiveHome) Trigger(name string) (RoutineID, error) { return h.m.Trigger(hub.Home, name) }

// TriggerHandle identifies a scheduled automation trigger.
type TriggerHandle = hub.TriggerHandle

// ScheduledTrigger describes one active automation trigger.
type ScheduledTrigger = hub.ScheduledTrigger

// ScheduleAfter dispatches a stored routine once after the delay (e.g. the
// paper's timed trash-night routine).
func (h *LiveHome) ScheduleAfter(name string, delay time.Duration) (TriggerHandle, error) {
	return h.m.ScheduleAfter(hub.Home, name, delay)
}

// ScheduleEvery dispatches a stored routine repeatedly at the given interval.
func (h *LiveHome) ScheduleEvery(name string, interval time.Duration) (TriggerHandle, error) {
	return h.m.ScheduleEvery(hub.Home, name, interval)
}

// CancelTrigger stops a scheduled trigger; it is not an error if the handle
// is unknown or already fired. It returns ErrOverloaded when the home's
// mailbox is full.
func (h *LiveHome) CancelTrigger(t TriggerHandle) error { return h.m.CancelTrigger(hub.Home, t) }

// Triggers lists active scheduled triggers.
func (h *LiveHome) Triggers() []ScheduledTrigger { return h.slot.Load().Triggers() }

// Results returns per-routine outcomes in submission order.
func (h *LiveHome) Results() []Result { return h.slot.Load().Results() }

// Result returns one routine's outcome.
func (h *LiveHome) Result(id RoutineID) (Result, bool) { return h.slot.Load().Result(id) }

// Devices reports every device's committed state and liveness.
func (h *LiveHome) Devices() []DeviceStatus {
	devices, _ := hub.DevicesOf(h.m, hub.Home) // the home is never removed
	return devices
}

// Status summarizes the home.
func (h *LiveHome) Status() HubStatus {
	st, _ := hub.StatusOf(h.m, hub.Home) // the home is never removed
	return st
}

// Events returns the recent controller activity log.
func (h *LiveHome) Events() []Event { return h.slot.Load().Events() }

// EventsSince returns the retained events with sequence number >= since and
// the cursor to pass on the next call, so pollers fetch only the tail
// (mirrors the HTTP API's /api/events?since=N).
func (h *LiveHome) EventsSince(since uint64) ([]Event, uint64) {
	return h.slot.Load().EventsSince(since)
}

// HTTPHandler returns the hub's HTTP API (see internal/hub for the routes).
func (h *LiveHome) HTTPHandler() http.Handler { return hub.HomeHandler(h.m, hub.Home) }

// WaitIdle blocks until every submitted routine has finished or the timeout
// elapses.
func (h *LiveHome) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for h.slot.Load().PendingCount() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("safehome: %d routines still pending after %v", h.slot.Load().PendingCount(), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Plugs returns n generic smart-plug device descriptions (plug-0 .. plug-n-1),
// a convenient fleet for demos and tests.
func Plugs(n int) []DeviceInfo {
	return device.Plugs(n).All()
}
