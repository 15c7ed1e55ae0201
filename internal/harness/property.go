// Property-based sweeps: run generated workloads against the controllers and
// check the two invariants every visibility model ≥ GSV promises — the end
// state is serially equivalent to some order of the committed routines
// (congruence), and the controller's own claimed serialization actually
// produces the observed end state with every committed routine placed exactly
// once (weak ordering). Failing seeds are shrunk to a minimal reproducer.
package harness

import (
	"fmt"

	"safehome/internal/congruence"
	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// Violation is one invariant breach found by Verify.
type Violation struct {
	// Kind is a stable tag: lost-routine, unfinished, incongruent,
	// serial-missing, serial-duplicate, serial-extra, serial-mismatch.
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// initialState computes the fleet's state at t=0 for a spec.
func initialState(spec workload.Spec) map[device.ID]device.State {
	return device.NewFleet(spec.Registry()).Snapshot()
}

// Verify checks one finished trial against the spec it ran.
//
// Always checked: every submission reached a terminal result, and the
// claimed serialization names each committed routine exactly once and no
// uncommitted one. When the spec injects no device failures, two stronger
// checks apply: the end state must be congruent (explainable by *some* serial
// order of the committed routines), and replaying the controller's *claimed*
// serialization must reproduce the observed end state exactly. Both use the
// routines' definition-based writes, which are only accurate when no
// best-effort command can fail — i.e. when no device ever goes down.
func Verify(spec workload.Spec, tr TrialResult) []Violation {
	var out []Violation

	if len(tr.Results) != len(spec.Submissions) {
		out = append(out, Violation{"lost-routine",
			fmt.Sprintf("%d submissions but %d results", len(spec.Submissions), len(tr.Results))})
	}
	committed := make(map[routine.ID]*routine.Routine)
	var committedRoutines []*routine.Routine
	for _, res := range tr.Results {
		if !res.Status.Finished() {
			out = append(out, Violation{"unfinished",
				fmt.Sprintf("routine %d (%s) ended %v", res.ID, res.Routine.Name, res.Status)})
			continue
		}
		if res.Status == visibility.StatusCommitted {
			committed[res.ID] = res.Routine
			committedRoutines = append(committedRoutines, res.Routine)
		}
	}

	pure := len(spec.Failures) == 0
	initial := initialState(spec)

	if pure {
		if res := congruence.Check(initial, congruence.FromRoutines(committedRoutines), tr.EndState); !res.Congruent {
			out = append(out, Violation{"incongruent",
				fmt.Sprintf("end state of devices %v unexplained by any serial order of %d committed routines",
					res.BadDevices, len(committedRoutines))})
		}
	}

	// Weak ordering, part 1: the serialization's routine nodes are exactly
	// the committed routines, each once.
	seen := make(map[routine.ID]int)
	var serialIDs []routine.ID
	for _, n := range tr.Serialization {
		if n.Kind != order.KindRoutine {
			continue
		}
		seen[n.Routine]++
		serialIDs = append(serialIDs, n.Routine)
	}
	clean := true
	for id := range committed {
		if seen[id] == 0 {
			clean = false
			out = append(out, Violation{"serial-missing",
				fmt.Sprintf("committed routine %d absent from serialization", id)})
		}
	}
	for id, n := range seen {
		if n > 1 {
			clean = false
			out = append(out, Violation{"serial-duplicate",
				fmt.Sprintf("routine %d appears %d times in serialization", id, n)})
		}
		if _, ok := committed[id]; !ok {
			clean = false
			out = append(out, Violation{"serial-extra",
				fmt.Sprintf("serialization names routine %d, which did not commit", id)})
		}
	}

	// Weak ordering, part 2: the claimed order reproduces the end state.
	if pure && clean {
		want := congruence.SerialEndState(initial, committedRoutines, serialIDs)
		for _, d := range device.SortedIDs(tr.EndState) {
			if want[d] != tr.EndState[d] {
				out = append(out, Violation{"serial-mismatch",
					fmt.Sprintf("device %s is %s but the claimed serialization yields %s",
						d, tr.EndState[d], want[d])})
			}
		}
	}
	return out
}

// SweepParams configures a generator sweep: Seeds consecutive seeds starting
// at Params.Seed, each run under every listed scheduler (EV model).
type SweepParams struct {
	Params     workload.GenParams
	Seeds      int
	Schedulers []visibility.SchedulerKind
	// Factory substitutes the controller under test (nil = production).
	Factory ControllerFactory
	// NoShrink skips minimizing failing specs (sweeps that only need a
	// verdict, e.g. CI smoke on many seeds).
	NoShrink bool
}

// SweepFailure is one failing (seed, scheduler) cell with its shrunk
// reproducer.
type SweepFailure struct {
	Seed       int64
	Scheduler  visibility.SchedulerKind
	Violations []Violation
	// Minimal is the shrunk spec (equal to the full spec when NoShrink).
	Minimal workload.Spec
	// MinimalViolations are the violations the minimal spec still triggers.
	MinimalViolations []Violation
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	Runs     int
	Routines int
	// IdleHomes counts generated specs marked Idle (IdlePct > 0); each also
	// ran the hibernation freeze/wake oracle.
	IdleHomes int
	Failures  []SweepFailure
}

// DefaultSchedulers are the three EV scheduling policies the sweep exercises.
func DefaultSchedulers() []visibility.SchedulerKind {
	return []visibility.SchedulerKind{visibility.SchedTL, visibility.SchedFCFS, visibility.SchedJiT}
}

// Sweep generates Seeds workloads and verifies each under every scheduler,
// shrinking failures to minimal reproducers.
func Sweep(p SweepParams) SweepResult {
	if p.Seeds <= 0 {
		p.Seeds = 1
	}
	scheds := p.Schedulers
	if len(scheds) == 0 {
		scheds = DefaultSchedulers()
	}
	var res SweepResult
	for i := 0; i < p.Seeds; i++ {
		gp := p.Params
		gp.Seed = p.Params.Seed + int64(i)
		spec := workload.Generate(gp)
		if spec.Idle {
			// Idle homes are hibernation's home turf: beyond the controller
			// invariants below, the quiesced home must survive a freeze/wake
			// round trip exactly. Once per seed — the oracle checks the
			// journal path, which is scheduler-independent.
			res.IdleHomes++
			fwViols, err := CheckFreezeWake(spec, scheds[0])
			if err != nil {
				fwViols = append(fwViols, Violation{"freeze-wake-error", err.Error()})
			}
			if len(fwViols) > 0 {
				res.Failures = append(res.Failures, SweepFailure{
					Seed: gp.Seed, Scheduler: scheds[0],
					Violations: fwViols, Minimal: spec, MinimalViolations: fwViols,
				})
			}
		}
		for _, sched := range scheds {
			opts := visibility.DefaultOptions(visibility.EV)
			opts.Scheduler = sched
			tr := RunWith(spec, opts, gp.Seed, p.Factory)
			res.Runs++
			res.Routines += len(tr.Results)
			viols := Verify(spec, tr)
			if len(viols) == 0 {
				continue
			}
			fail := SweepFailure{Seed: gp.Seed, Scheduler: sched, Violations: viols}
			fail.Minimal = spec
			fail.MinimalViolations = viols
			if !p.NoShrink {
				fail.Minimal = workload.Shrink(spec, func(s workload.Spec) bool {
					return len(Verify(s, RunWith(s, opts, gp.Seed, p.Factory))) > 0
				})
				fail.MinimalViolations = Verify(fail.Minimal, RunWith(fail.Minimal, opts, gp.Seed, p.Factory))
			}
			res.Failures = append(res.Failures, fail)
		}
	}
	return res
}
