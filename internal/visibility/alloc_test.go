package visibility

import (
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
)

// armCounter is a SimEnv that counts the timers its controller arms.
type armCounter struct {
	*SimEnv
	armed int
}

func (e *armCounter) After(d time.Duration, t Timer) TimerHandle {
	e.armed++
	return e.SimEnv.After(d, t)
}

// cycleAllocs measures what one routine costs a warmed EV controller from
// Submit to commit, in heap objects: each measured cycle submits the burst
// and drains the simulator. It also reports how many timers one cycle arms.
func cycleAllocs(t *testing.T, kind SchedulerKind, plugs int, latency time.Duration, burst []*routine.Routine) (allocs float64, armed int) {
	t.Helper()
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(device.Plugs(plugs))
	env := &armCounter{SimEnv: NewSimEnv(s, fleet)}
	env.ActuationLatency = latency
	opts := DefaultOptions(EV)
	opts.Scheduler = kind
	ctrl := New(env, fleet.Snapshot(), opts)

	cycle := func() {
		for _, r := range burst {
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
	env.armed = 0
	cycle()
	armed = env.armed
	return testing.AllocsPerRun(100, cycle) / float64(len(burst)), armed
}

// evCycleAllocs measures a burst of three routines over two shared devices
// (so one holds the locks, the others block, are woken and block again —
// the waiter, JiT TTL and commit-compaction paths all run).
func evCycleAllocs(t *testing.T, kind SchedulerKind, commands int) (allocs float64, armed int) {
	t.Helper()
	plugs := device.Plugs(3).IDs()
	burst := make([]*routine.Routine, 3)
	for i := range burst {
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
		burst[i] = r
	}
	return cycleAllocs(t, kind, 3, 0, burst)
}

// evRoutineAllocs is the stated constant: what a routine costs however many
// commands it has. Four heap objects are the routine itself — the
// submission-time clone public Submit makes (routine, commands, cached
// device set) — and its run: one record holding the routine's Result, its
// device slots (inline up to four devices), its completion and its timers.
// SubmitOwned skips the clone's routine and commands. What a controller
// keeps per routine beyond those (results, export chunks) grows in slabs
// whose amortized cost AllocsPerRun rounds away; the precedence graph and
// the run slots are sealed and emptied each time the burst drains, reusing
// their storage, so they cost nothing per routine at all. A timer costs
// nothing either: the run slot or the run is the Timer, and the simulator
// event it rides in is recycled.
const evRoutineAllocs = 4

// raceBuild reports whether the race detector is on: its instrumentation
// moves one more object per routine to the heap, so there the budgets are
// skipped and only the slopes are held.
func raceBuild() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestEVRoutineCycleAllocations is the execution half's companion of
// TestMeteredSubmitDoesNotAllocate: dispatch → completion → commit must cost
// a per-routine constant, not a per-command one. A closure per command, a
// map per touched device or a rebuilt waiter list shows up here as a slope;
// anything new per routine as a broken budget. JiT arms a starvation TTL
// for each of the two routines that queue, inside the same budget.
func TestEVRoutineCycleAllocations(t *testing.T) {
	exact := !raceBuild()
	for _, kind := range []SchedulerKind{SchedTL, SchedFCFS, SchedJiT} {
		short, _ := evCycleAllocs(t, kind, 2)
		long, armed := evCycleAllocs(t, kind, 8)
		t.Logf("%v: %.1f allocs/routine at 2 commands, %.1f at 8; %d timers armed per cycle", kind, short, long, armed)
		if exact && long > evRoutineAllocs+0.01 {
			t.Errorf("%v: an 8-command routine costs %.2f allocs, budget %d", kind, long, evRoutineAllocs)
		}
		if long != short {
			t.Errorf("%v: 6 more commands cost %.2f more allocs — something allocates per command", kind, long-short)
		}
		if kind == SchedJiT && armed == 0 {
			t.Errorf("JiT armed no TTL: the cycle does not measure a timer")
		}
	}
}

// TestPreLeaseCycleAllocations holds a routine that is pre-leased a lock to
// the same budget. TL places the short routine on plug-1 ahead of the long
// one, whose access there lies ten seconds out, so acquiring plug-1 arms the
// revocation timer; the actuation latency stretches the hold past the
// lease's interval, and the timer fires with nobody waiting and re-arms
// itself (the extension) before the last touch cancels it.
func TestPreLeaseCycleAllocations(t *testing.T) {
	plugs := device.Plugs(2).IDs()
	burst := []*routine.Routine{
		routine.New("long",
			routine.Command{Device: plugs[0], Target: device.On, Duration: 10 * time.Second},
			routine.Command{Device: plugs[1], Target: device.On, Duration: time.Second}),
		routine.New("leased",
			routine.Command{Device: plugs[1], Target: device.Off, Duration: time.Second}),
	}
	allocs, armed := cycleAllocs(t, SchedTL, 2, 2*time.Second, burst)
	t.Logf("%.1f allocs/routine; %d timers armed per cycle", allocs, armed)
	if armed < 2 {
		t.Fatalf("%d timers armed per cycle, want the lease and its extension", armed)
	}
	if !raceBuild() && allocs > evRoutineAllocs+0.01 {
		t.Errorf("a pre-leased routine costs %.2f allocs, budget %d", allocs, evRoutineAllocs)
	}
}

// TestRunRecordFitsItsSizeClass pins the run record at 480 B, a Go size
// class: one more field would round the one-object run up to 512 B.
func TestRunRecordFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(evRun{}); size > 480 {
		t.Fatalf("evRun is %d B, want at most 480", size)
	}
}
