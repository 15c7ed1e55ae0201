// Environment abstraction: the seam between a concurrency controller and the
// world that executes its commands. A discrete-event simulation environment
// (SimEnv) drives all experiments and most tests; the live hub provides a
// real-time implementation over networked devices.
package visibility

import (
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
)

// Env is the execution environment a controller runs against.
//
// Exec and After deliver their callbacks in the same serialized context that
// invokes the controller's entry points; a controller never needs its own
// locking.
type Env interface {
	// Now returns the current (virtual or wall-clock) time.
	Now() time.Time
	// After schedules fn to run after d and returns a cancellation func.
	After(d time.Duration, fn func()) (cancel func())
	// Exec asynchronously executes one command: it drives the device to
	// cmd.Target and keeps it busy for hold, then calls done.CommandDone.
	// done receives a non-nil error if the device was unreachable or unknown
	// (in which case the command had no effect).
	Exec(rid routine.ID, cmd routine.Command, hold time.Duration, done Completion)
	// DeviceState reports a device's current ground-truth state (used for
	// conditional commands outside EV, and by tests).
	DeviceState(d device.ID) (device.State, error)
}

// Completion receives the outcome of one command handed to Env.Exec. It is
// an interface rather than a func so that a long-lived record can be its own
// completion: EV's run record implements it, and a routine's commands then
// need no func value at all. The type is sim.Completion (and
// live.Completion), so it passes through both environments unconverted.
type Completion = sim.Completion

// DoneFunc adapts a func to Completion. A func is pointer-shaped, so
// storing one in the interface allocates nothing beyond the func itself.
type DoneFunc func(error)

// CommandDone implements Completion.
func (f DoneFunc) CommandDone(err error) { f(err) }

// ignoreDone is the completion of fire-and-forget rollback commands.
var ignoreDone = DoneFunc(func(error) {})

// SimEnv is the discrete-event simulation environment: commands actuate a
// simulated device fleet and complete after their hold duration of virtual
// time. All callbacks run on the simulator's single thread.
type SimEnv struct {
	// Sim is the virtual clock and event queue.
	Sim *sim.Sim
	// Fleet is the simulated device fleet commands actuate.
	Fleet *device.Fleet
	// ActuationLatency is added to every command completion (and failure),
	// modelling network + device round-trip time. Zero is allowed.
	ActuationLatency time.Duration
	// Jitter, if non-nil, returns an extra per-command delay, modelling the
	// variable device/network latency real smart plugs exhibit. It is what
	// makes Weak Visibility's races (Fig 1) observable under emulation.
	Jitter func() time.Duration
}

// NewSimEnv wires a simulator and a fleet into an environment.
func NewSimEnv(s *sim.Sim, fleet *device.Fleet) *SimEnv {
	return &SimEnv{Sim: s, Fleet: fleet}
}

// Now implements Env.
func (e *SimEnv) Now() time.Time { return e.Sim.Now() }

// After implements Env.
func (e *SimEnv) After(d time.Duration, fn func()) (cancel func()) { return e.Sim.After(d, fn) }

// Exec implements Env. The device's state changes at the moment the command
// is issued (a plug switches on immediately); the command's completion — and
// therefore the lock-hold — lasts for hold plus the actuation latency.
// Failures are reported through done, never synchronously, so controller
// callbacks are uniformly re-entered via the event queue. The completion
// rides in the simulator event itself (sim.Complete): Exec allocates nothing,
// and a controller whose run record is its own Completion pays for no
// completion object at all.
func (e *SimEnv) Exec(rid routine.ID, cmd routine.Command, hold time.Duration, done Completion) {
	err := e.Fleet.Apply(cmd.Device, cmd.Target)
	delay := hold + e.ActuationLatency
	if err != nil {
		// A rejected command fails fast: only the round-trip is spent.
		delay = e.ActuationLatency
	}
	if e.Jitter != nil {
		delay += e.Jitter()
	}
	e.Sim.Complete(delay, done, err)
}

// DeviceState implements Env.
func (e *SimEnv) DeviceState(d device.ID) (device.State, error) { return e.Fleet.Status(d) }
