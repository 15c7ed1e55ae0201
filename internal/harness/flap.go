// Device-flap and journal-flap drills: the self-healing counterparts of the
// kill/recover drills in drill.go. A flap drill runs a wall-clock home
// against an actuator whose device fails mid-routine and verifies the
// actuation path's circuit breaker — the flapping device's routine aborts
// without stalling the loop, commands to the device fail fast while the
// breaker is open, healthy devices keep committing, and the breaker
// re-closes once the device recovers. A journal-flap drill kills the
// journal's commit path mid-run and verifies the home degrades to
// memory-only instead of dying, then recovers its pre-degrade state on
// restart.
package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/live"
	"safehome/internal/routine"
	"safehome/internal/runtime"
	"safehome/internal/visibility"
)

// flapActuator is an in-memory actuator whose devices can be flipped
// between healthy and failing. While a device is down every exchange —
// actuation and ping alike — fails, modelling a plug that dropped off the
// network.
type flapActuator struct {
	mu   sync.Mutex
	st   map[device.ID]device.State
	down map[device.ID]bool
}

func newFlapActuator(reg *device.Registry) *flapActuator {
	a := &flapActuator{
		st:   make(map[device.ID]device.State),
		down: make(map[device.ID]bool),
	}
	for _, info := range reg.All() {
		a.st[info.ID] = info.Initial
	}
	return a
}

func (a *flapActuator) setDown(id device.ID, down bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.down[id] = down
}

func (a *flapActuator) Apply(id device.ID, target device.State) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down[id] {
		return fmt.Errorf("%w: %s: device is flapping", device.ErrUnavailable, id)
	}
	a.st[id] = target
	return nil
}

func (a *flapActuator) Status(id device.ID) (device.State, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down[id] {
		return device.StateUnknown, fmt.Errorf("%w: %s: device is flapping", device.ErrUnavailable, id)
	}
	return a.st[id], nil
}

func (a *flapActuator) Ping(id device.ID) error {
	_, err := a.Status(id)
	return err
}

// FlapReport is one device-flap drill's outcome.
type FlapReport struct {
	// Opens is how many times the flapping device's breaker opened.
	Opens int64
	// FlapAborted is the number of routines against the flapping device that
	// terminated (aborted) while it was down.
	FlapAborted int
	// HealthyCommitted is the number of healthy-device routines that
	// committed while the flapping device's breaker was open.
	HealthyCommitted int
	// Reclosed reports whether the breaker returned to closed after the
	// device recovered.
	Reclosed bool
	// Violations lists contract breaches (empty = drill passed).
	Violations []Violation
}

func (r FlapReport) String() string {
	return fmt.Sprintf("device-flap    opens=%-2d flap-aborted=%-2d healthy-committed=%-2d reclosed=%-5v violations=%d",
		r.Opens, r.FlapAborted, r.HealthyCommitted, r.Reclosed, len(r.Violations))
}

// oneCommand builds a single zero-duration command routine for the device.
func oneCommand(name string, id device.ID) *routine.Routine {
	r := routine.New(name)
	r.Commands = append(r.Commands, routine.Command{Device: id, Target: device.On})
	return r
}

// awaitTerminal polls one routine's result until it reaches a terminal
// status or the deadline passes.
func awaitTerminal(rt *runtime.HomeRuntime, rid routine.ID, deadline time.Time) (visibility.Result, error) {
	for {
		if res, ok := rt.Result(rid); ok &&
			(res.Status == visibility.StatusCommitted || res.Status == visibility.StatusAborted) {
			return res, nil
		}
		if time.Now().After(deadline) {
			return visibility.Result{}, fmt.Errorf("harness: routine %d never finished", rid)
		}
		time.Sleep(time.Millisecond)
	}
}

// RunFlapDrill exercises the actuation path's self-healing on a wall-clock
// home: plug-1 flaps while plug-0 stays healthy.
func RunFlapDrill() (FlapReport, error) {
	var rep FlapReport
	reg := device.Plugs(2)
	act := newFlapActuator(reg)
	const flapping = device.ID("plug-1")

	rt, err := runtime.NewLive(runtime.Config{
		ID:           "flap-drill",
		Model:        visibility.EV,
		DefaultShort: 5 * time.Millisecond,
		// Probe far apart so the failure detector cannot abort the flapped
		// routine before its second actuation attempt: the breaker must open
		// from the actuation path's own failures, deterministically.
		FailureInterval: 5 * time.Second,
		EventLog:        256,
		Actuation: live.Options{
			Timeout:          100 * time.Millisecond,
			Retries:          1,
			RetryBackoff:     5 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  150 * time.Millisecond,
		},
	}, reg, act)
	if err != nil {
		return rep, err
	}
	defer rt.Close()
	rt.Start()

	// Baseline: a healthy routine commits.
	rid, err := rt.Submit(oneCommand("baseline", "plug-0"))
	if err != nil {
		return rep, err
	}
	if res, err := awaitTerminal(rt, rid, time.Now().Add(5*time.Second)); err != nil {
		return rep, err
	} else if res.Status != visibility.StatusCommitted {
		rep.Violations = append(rep.Violations, Violation{"baseline-not-committed",
			fmt.Sprintf("baseline routine ended %v", res.Status)})
	}

	// The device starts flapping mid-run. A routine against it must abort
	// (timeout/refusal), not hang — with Retries=1 and BreakerThreshold=2,
	// one routine's two failed attempts open the breaker.
	act.setDown(flapping, true)
	rid, err = rt.Submit(oneCommand("flapped", flapping))
	if err != nil {
		return rep, err
	}
	res, err := awaitTerminal(rt, rid, time.Now().Add(5*time.Second))
	if err != nil {
		return rep, errors.New("harness: routine against flapping device stalled the loop")
	}
	if res.Status != visibility.StatusAborted {
		rep.Violations = append(rep.Violations, Violation{"flap-not-aborted",
			fmt.Sprintf("routine against flapping device ended %v, want aborted", res.Status)})
	} else {
		rep.FlapAborted++
	}
	if st := rt.BreakerState(flapping); st != live.BreakerOpen {
		rep.Violations = append(rep.Violations, Violation{"breaker-not-open",
			fmt.Sprintf("breaker is %v after %d consecutive failures, want open", st, 2)})
	}

	// With the breaker open: commands to the flapping device fail fast and
	// healthy devices keep committing — the flap never monopolizes the loop.
	rid, err = rt.Submit(oneCommand("fast-fail", flapping))
	if err != nil {
		return rep, err
	}
	if res, err := awaitTerminal(rt, rid, time.Now().Add(5*time.Second)); err != nil {
		return rep, err
	} else if res.Status == visibility.StatusAborted {
		rep.FlapAborted++
	}
	rid, err = rt.Submit(oneCommand("healthy", "plug-0"))
	if err != nil {
		return rep, err
	}
	if res, err := awaitTerminal(rt, rid, time.Now().Add(5*time.Second)); err != nil {
		return rep, err
	} else if res.Status != visibility.StatusCommitted {
		rep.Violations = append(rep.Violations, Violation{"healthy-starved",
			fmt.Sprintf("healthy routine ended %v while the breaker was open", res.Status)})
	} else {
		rep.HealthyCommitted++
	}

	// Recovery: the device comes back, the detector's pings rediscover it,
	// and after the cooldown the next command half-open-probes the breaker
	// closed. A freshly restored device may need a few attempts while the
	// controller catches up with the restart notification.
	act.setDown(flapping, false)
	time.Sleep(200 * time.Millisecond) // cooldown + a detector probe period
	deadline := time.Now().Add(5 * time.Second)
	for !rep.Reclosed {
		if time.Now().After(deadline) {
			rep.Violations = append(rep.Violations, Violation{"breaker-stuck-open",
				"breaker never re-closed after the device recovered"})
			break
		}
		rid, err = rt.Submit(oneCommand("recovered", flapping))
		if err != nil {
			return rep, err
		}
		res, err := awaitTerminal(rt, rid, time.Now().Add(5*time.Second))
		if err != nil {
			return rep, err
		}
		if res.Status == visibility.StatusCommitted && rt.BreakerState(flapping) == live.BreakerClosed {
			rep.Reclosed = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, b := range rt.Breakers() {
		if b.Device == flapping {
			rep.Opens = b.Opens
		}
	}
	if rep.Opens == 0 {
		rep.Violations = append(rep.Violations, Violation{"opens-unrecorded",
			"breaker stats record zero opens for the flapping device"})
	}
	return rep, nil
}

// JournalFlapReport is one journal-flap drill's outcome.
type JournalFlapReport struct {
	// DegradedServing is the number of routines committed after the journal
	// died.
	DegradedServing int
	// RecoveredAcked is the number of pre-degrade routines recovered by a
	// restart on the same directory.
	RecoveredAcked int
	// Violations lists contract breaches (empty = drill passed).
	Violations []Violation
}

func (r JournalFlapReport) String() string {
	return fmt.Sprintf("journal-flap   degraded-serving=%-2d recovered-acked=%-2d violations=%d",
		r.DegradedServing, r.RecoveredAcked, len(r.Violations))
}

// RunJournalFlapDrill kills the journal's group-commit path mid-run and
// verifies availability-over-durability: the home degrades to memory-only
// (health "degraded") but keeps serving, and a restart on the same
// directory recovers exactly the work acknowledged before the degrade.
func RunJournalFlapDrill(dir string) (JournalFlapReport, error) {
	var rep JournalFlapReport
	if dir == "" {
		return rep, errors.New("harness: journal-flap drill needs a data dir")
	}
	var failCommits atomic.Bool
	w, err := openLog(dir, journal.ModeSync, nil)
	if err != nil {
		return rep, err
	}
	cfg := runtime.Config{
		ID:       "journal-flap",
		Clock:    runtime.ClockPaced,
		Model:    visibility.EV,
		EventLog: 256,
		DataDir:  dir,
		Journal: journal.Options{
			Writer: w,
			TestInjectErr: func(op string) error {
				if op == "commit" && failCommits.Load() {
					return errors.New("harness: injected journal fault")
				}
				return nil
			},
		},
	}
	reg := device.Plugs(4)
	rt, err := runtime.NewSim(cfg, reg)
	if err != nil {
		return rep, err
	}

	// Phase 1: acknowledged, journaled work.
	const acked = 4
	for i := 0; i < acked; i++ {
		if _, err := rt.Submit(oneCommand(fmt.Sprintf("acked-%d", i), device.ID(fmt.Sprintf("plug-%d", i)))); err != nil {
			return rep, err
		}
	}
	if err := pumpDry(rt, time.Now().Add(10*time.Second)); err != nil {
		return rep, err
	}
	if !rt.Durable() {
		return rep, fmt.Errorf("harness: home not durable before the journal flap: %v", rt.JournalError())
	}

	// Phase 2: the journal dies. The home must degrade, not die: submits
	// keep committing in memory and the runtime reports the journal error.
	failCommits.Store(true)
	for i := 0; i < 3; i++ {
		rid, err := rt.Submit(oneCommand(fmt.Sprintf("degraded-%d", i), "plug-0"))
		if err != nil {
			rep.Violations = append(rep.Violations, Violation{"degraded-not-serving",
				fmt.Sprintf("submit after journal death failed: %v", err)})
			continue
		}
		if err := pumpDry(rt, time.Now().Add(10*time.Second)); err != nil {
			return rep, err
		}
		if res, ok := rt.Result(rid); ok && res.Status == visibility.StatusCommitted {
			rep.DegradedServing++
		}
	}
	if rt.Durable() {
		rep.Violations = append(rep.Violations, Violation{"degrade-unreported",
			"journal fault injected but the home still reports durable"})
	}
	if rt.JournalError() == nil {
		rep.Violations = append(rep.Violations, Violation{"journal-error-lost",
			"degraded home reports no journal error"})
	}
	rt.Crash()
	w.Abandon()

	// Phase 3: restart on the same directory. Pre-degrade work recovers;
	// post-degrade work was memory-only by contract and is gone.
	failCommits.Store(false)
	if w, err = openLog(dir, journal.ModeSync, nil); err != nil {
		return rep, err
	}
	defer w.Close()
	cfg.Journal.Writer = w
	rec, err := runtime.NewSim(cfg, device.Plugs(4))
	if err != nil {
		return rep, fmt.Errorf("harness: journal-flap recovery: %w", err)
	}
	defer rec.Close()
	for _, res := range rec.Results() {
		if res.Status == visibility.StatusCommitted {
			rep.RecoveredAcked++
		}
	}
	if rep.RecoveredAcked < acked {
		rep.Violations = append(rep.Violations, Violation{"lost-acked",
			fmt.Sprintf("recovered %d committed routines, want at least %d journaled before the flap",
				rep.RecoveredAcked, acked)})
	}
	if !rec.Durable() {
		rep.Violations = append(rep.Violations, Violation{"not-durable",
			fmt.Sprintf("recovered home reports journal error: %v", rec.JournalError())})
	}
	return rep, nil
}
