package visibility

import (
	"runtime/debug"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
)

// evCycleAllocs measures what one routine costs a warmed EV controller from
// Submit to commit, in heap objects: each measured cycle submits a burst of
// three routines over two shared devices (so one holds the locks, the others
// block, are woken and block again — the waiter, lease and commit-compaction
// paths all run) and drains the simulator.
func evCycleAllocs(t *testing.T, kind SchedulerKind, commands int) float64 {
	t.Helper()
	s := sim.NewAtEpoch()
	reg := device.Plugs(3)
	plugs := reg.IDs()
	fleet := device.NewFleet(reg)
	opts := DefaultOptions(EV)
	opts.Scheduler = kind
	ctrl := New(NewSimEnv(s, fleet), fleet.Snapshot(), opts)

	const burst = 3
	var defs [burst]*routine.Routine
	for i := range defs {
		r := routine.New("cycle")
		for c := 0; c < commands; c++ {
			target := device.On
			if (i+c)%2 == 1 {
				target = device.Off
			}
			// Every routine of the burst alternates between the shared
			// plug-1 and one of the other two.
			dev := plugs[1]
			if c%2 == 1 {
				dev = plugs[i%2*2]
			}
			r.Commands = append(r.Commands, routine.Command{Device: dev, Target: target, Duration: time.Second})
		}
		defs[i] = r
	}
	cycle := func() {
		for _, r := range defs {
			ctrl.Submit(r)
		}
		s.Run()
	}
	for i := 0; i < 50; i++ { // warm every pool, slab and scratch buffer
		cycle()
	}
	if pending := ctrl.PendingCount(); pending != 0 {
		t.Fatalf("%d routines unfinished after warm-up", pending)
	}
	return testing.AllocsPerRun(100, cycle) / burst
}

// evRoutineAllocs is the stated constant: what a routine costs however many
// commands it has. Four heap objects are the routine itself — the
// submission-time clone public Submit makes (routine, commands, cached
// device set) — and its run: one record holding the routine's Result, its
// device slots (inline up to four devices) and its completion. SubmitOwned
// skips the clone's routine and commands. What a controller keeps per
// routine beyond those (results, export chunks) grows in slabs whose
// amortized cost AllocsPerRun rounds away; the precedence graph and the run
// slots are sealed and emptied each time the burst drains, reusing their
// storage, so they cost nothing per routine at all.
const evRoutineAllocs = 4

// TestEVRoutineCycleAllocations is the execution half's companion of
// TestMeteredSubmitDoesNotAllocate: dispatch → completion → commit must cost
// a per-routine constant, not a per-command one. A closure per command, a
// map per touched device or a rebuilt waiter list shows up here as a slope;
// anything new per routine as a broken budget.
func TestEVRoutineCycleAllocations(t *testing.T) {
	// The race detector's instrumentation moves one more object per routine
	// to the heap; there the budget is skipped and only the slope is held.
	exact := true
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			exact = exact && !(s.Key == "-race" && s.Value == "true")
		}
	}
	for _, kind := range []SchedulerKind{SchedTL, SchedFCFS, SchedJiT} {
		budget := float64(evRoutineAllocs)
		if kind == SchedJiT {
			// Two of the burst's three routines queue behind the first, and
			// a queued JiT routine arms its starvation TTL: the timer's
			// callback and its cancel handle.
			budget += 2 * 2.0 / 3
		}
		short, long := evCycleAllocs(t, kind, 2), evCycleAllocs(t, kind, 8)
		t.Logf("%v: %.1f allocs/routine at 2 commands, %.1f at 8", kind, short, long)
		if exact && long > budget+0.01 {
			t.Errorf("%v: an 8-command routine costs %.2f allocs, budget %.2f", kind, long, budget)
		}
		if long != short {
			t.Errorf("%v: 6 more commands cost %.2f more allocs — something allocates per command", kind, long-short)
		}
	}
}
