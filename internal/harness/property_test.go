package harness

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// rogueWriteFactory builds the production controller but schedules a write
// behind its back, long after all routine activity: the end state can no
// longer be explained by any serial order of the committed routines.
func rogueWriteFactory(env *visibility.SimEnv, initial map[device.ID]device.State, opts visibility.Options) visibility.Controller {
	env.Sim.Post(1000*time.Hour, func() { _ = env.Fleet.Apply("plug-00", device.State("rogue")) })
	return visibility.New(env, initial, opts)
}

// serialDropper wraps a real controller but omits the last routine node from
// its claimed serialization.
type serialDropper struct {
	visibility.Controller
}

func (d serialDropper) Serialization() []order.Node {
	s := d.Controller.Serialization()
	for i := len(s) - 1; i >= 0; i-- {
		if s[i].Kind == order.KindRoutine {
			out := append([]order.Node(nil), s[:i]...)
			return append(out, s[i+1:]...)
		}
	}
	return s
}

func serialDropperFactory(env *visibility.SimEnv, initial map[device.ID]device.State, opts visibility.Options) visibility.Controller {
	return serialDropper{visibility.New(env, initial, opts)}
}

// TestSweepGeneratedWorkloads is the main property sweep: 50 generated homes
// of 120 devices, each verified under all three EV schedulers against the
// congruence and weak-ordering oracles.
func TestSweepGeneratedWorkloads(t *testing.T) {
	p := SweepParams{
		Params: workload.DefaultGenParams(),
		Seeds:  50,
	}
	p.Params.Seed = 1000
	if testing.Short() {
		p.Seeds = 8
	}
	res := Sweep(p)
	t.Logf("sweep: %d runs, %d routine executions, %d failing cells",
		res.Runs, res.Routines, len(res.Failures))
	for _, f := range res.Failures {
		t.Errorf("seed %d / %v: %d violations; minimal repro %q (%d submissions, %d commands): %v",
			f.Seed, f.Scheduler, len(f.Violations), f.Minimal.Name,
			len(f.Minimal.Submissions), f.Minimal.TotalCommands(), f.MinimalViolations)
	}
	if want := p.Seeds * 3; res.Runs != want {
		t.Errorf("runs = %d, want %d", res.Runs, want)
	}
}

// TestSweepIdleHomesFreezeWake exercises the idle-skew knob end to end: every
// seed is idle, so each spec runs both the controller oracles and the
// hibernation freeze/wake identity check.
func TestSweepIdleHomesFreezeWake(t *testing.T) {
	p := SweepParams{
		Params: workload.DefaultGenParams(),
		Seeds:  3,
	}
	p.Params.Seed = 8000
	p.Params.Routines = 40
	p.Params.IdlePct = 100
	res := Sweep(p)
	if res.IdleHomes != p.Seeds {
		t.Errorf("IdleHomes = %d, want %d (IdlePct=100)", res.IdleHomes, p.Seeds)
	}
	for _, f := range res.Failures {
		t.Errorf("seed %d / %v: %v", f.Seed, f.Scheduler, f.Violations)
	}
}

// TestSweepWithDeviceFailures exercises the failure-injection path; with
// failures present only the completeness and serialization-set oracles apply.
func TestSweepWithDeviceFailures(t *testing.T) {
	p := SweepParams{
		Params: workload.DefaultGenParams(),
		Seeds:  6,
	}
	p.Params.Seed = 7000
	p.Params.FailedPct = 15
	p.Params.RestartPct = 50
	res := Sweep(p)
	for _, f := range res.Failures {
		t.Errorf("seed %d / %v: %v", f.Seed, f.Scheduler, f.Violations)
	}
}

// TestSweepCatchesRogueWriteController proves the congruence oracle fires on
// a controller whose home drifts from everything it committed, and that the
// failing spec shrinks to a trivial reproducer.
func TestSweepCatchesRogueWriteController(t *testing.T) {
	p := SweepParams{
		Params:     workload.DefaultGenParams(),
		Seeds:      1,
		Schedulers: []visibility.SchedulerKind{visibility.SchedTL},
		Factory:    rogueWriteFactory,
	}
	p.Params.Seed = 300
	p.Params.Routines = 40
	res := Sweep(p)
	if len(res.Failures) != 1 {
		t.Fatalf("rogue-write controller produced %d failing cells, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	found := false
	for _, v := range f.Violations {
		if v.Kind == "incongruent" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include incongruent", f.Violations)
	}
	// The rogue write reproduces with no workload at all, so the shrunk spec
	// must be (near) empty.
	if len(f.Minimal.Submissions) > 2 {
		t.Errorf("minimal repro kept %d submissions, want <= 2", len(f.Minimal.Submissions))
	}
	if len(f.MinimalViolations) == 0 {
		t.Error("minimal spec no longer violates")
	}
	t.Logf("rogue write shrunk to %d submissions / %d commands: %v",
		len(f.Minimal.Submissions), f.Minimal.TotalCommands(), f.MinimalViolations)
}

// TestSweepCatchesSerializationDropper proves the weak-ordering oracle fires
// when a controller's claimed serialization omits a committed routine.
func TestSweepCatchesSerializationDropper(t *testing.T) {
	p := SweepParams{
		Params:     workload.DefaultGenParams(),
		Seeds:      1,
		Schedulers: []visibility.SchedulerKind{visibility.SchedFCFS},
		Factory:    serialDropperFactory,
	}
	p.Params.Seed = 301
	p.Params.Routines = 30
	res := Sweep(p)
	if len(res.Failures) != 1 {
		t.Fatalf("serialization dropper produced %d failing cells, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	found := false
	for _, v := range f.Violations {
		if v.Kind == "serial-missing" {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v do not include serial-missing", f.Violations)
	}
	if len(f.Minimal.Submissions) > 2 {
		t.Errorf("minimal repro kept %d submissions, want <= 2", len(f.Minimal.Submissions))
	}
}

// TestVerifyCleanOnPaperScenarios sanity-checks the oracles against the
// hand-written paper workloads.
func TestVerifyCleanOnPaperScenarios(t *testing.T) {
	specs := []workload.Spec{workload.Figure2(), workload.Morning(1), workload.Party(1)}
	for _, spec := range specs {
		for _, sched := range DefaultSchedulers() {
			opts := visibility.DefaultOptions(visibility.EV)
			opts.Scheduler = sched
			tr := Run(spec, opts, 1)
			if viols := Verify(spec, tr); len(viols) != 0 {
				t.Errorf("%s under %v: %v", spec.Name, sched, viols)
			}
		}
	}
}
