// Package hub is the HTTP surface of SafeHome's edge hub (Fig 11) over a
// manager (internal/manager): one handler type serves both deployment
// shapes. ManagerHandler serves the multi-tenant API, every home under
// /homes/{id}/…; HomeHandler serves one home under /api/…, the same per-home
// routes with the home fixed. Every home — the single hub's included — is a
// unified home runtime (internal/runtime) holding the routine bank, the
// routine dispatcher and its triggers, the concurrency controller for the
// configured visibility model, the device driver and the failure detector;
// the manager owns its supervision, journal writer and /metrics registry.
//
// New builds the single-home shape: a one-shard manager holding one
// device-bound, wall-clock home named Home.
//
// There is no hub lock: every mutation is a typed op posted into the home's
// mailbox, and the live environment delivers command completions and timer
// callbacks through the same mailbox, so the controller keeps its
// single-threaded execution model end to end; reads answer from the
// runtime's published snapshot. When the mailbox is full, mutating routes
// answer 429.
//
// See ARCHITECTURE.md at the repository root for how the hub layers between
// the public API, the manager and the unified home runtime.
package hub

import (
	"fmt"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// Errors surfaced by the runtime's admission control, re-exported for the
// root safehome package and the HTTP layer.
var (
	// ErrOverloaded is returned when a home's mailbox is full (HTTP 429).
	ErrOverloaded = rt.ErrOverloaded
	// ErrClosed is returned by mutating calls after Close.
	ErrClosed = rt.ErrClosed
	// ErrPoisoned is returned to operations parked in a runtime whose loop
	// panicked; the supervisor is already restarting it (HTTP 503).
	ErrPoisoned = rt.ErrPoisoned
)

// TriggerHandle identifies a scheduled trigger.
type TriggerHandle = rt.TriggerHandle

// ScheduledTrigger describes one active trigger.
type ScheduledTrigger = rt.ScheduledTrigger

// Config configures the single-home hub New builds.
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
	// back Aborted), in the manager's layout for the one home Home (the
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

// Home names the single hub's one home: its runtime, its journal frames and
// its directory under <DataDir>/homes.
const Home manager.HomeID = "hub"

// New builds the single-home hub: a one-shard manager holding one home,
// Home, that controls the registered devices through the actuator (the kasa
// driver for networked plugs, or an in-memory fleet for tests and demos).
// Serve it with HomeHandler(m, Home); Start arms its failure detector.
func New(cfg Config, reg *device.Registry, actuator device.Actuator) (*manager.Manager, error) {
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
	if err := m.AddHome(Home, reg.All()...); err != nil {
		m.Crash()
		return nil, fmt.Errorf("hub: %w", err)
	}
	return m, nil
}
