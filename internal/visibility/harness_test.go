package visibility

// Shared test scaffolding: a miniature smart home driven by the discrete
// event simulator, with helpers to submit routines, inject failures and
// restarts at chosen virtual times, and interrogate the end state.

import (
	"testing"
	"time"

	"safehome/internal/congruence"
	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
)

type testHome struct {
	t     *testing.T
	sim   *sim.Sim
	reg   *device.Registry
	fleet *device.Fleet
	env   *SimEnv
	ctrl  Controller

	events  []Event
	submits []*routine.Routine // in submission order (for congruence checks)
}

// newTestHome builds a home with the given devices and a controller with the
// given options. If opts.Observer is nil the harness records events itself.
func newTestHome(t *testing.T, opts Options, devices ...device.Info) *testHome {
	t.Helper()
	h := &testHome{t: t, sim: sim.NewAtEpoch(), reg: device.NewRegistry(devices...)}
	h.fleet = device.NewFleet(h.reg)
	h.env = NewSimEnv(h.sim, h.fleet)
	if opts.Observer == nil {
		opts.Observer = func(e Event) { h.events = append(h.events, e) }
	}
	opts.CheckInvariants = true
	h.ctrl = New(h.env, h.fleet.Snapshot(), opts)
	return h
}

// homeDevices is the default device set used by most controller tests.
func homeDevices() []device.Info {
	return []device.Info{
		{ID: "window", Kind: device.KindWindow, Initial: device.Open},
		{ID: "ac", Kind: device.KindAC, Initial: device.Off},
		{ID: "coffee", Kind: device.KindCoffeeMaker, Initial: device.Off},
		{ID: "pancake", Kind: device.KindPancake, Initial: device.Off},
		{ID: "light-1", Kind: device.KindLight, Initial: device.Off},
		{ID: "light-2", Kind: device.KindLight, Initial: device.Off},
		{ID: "door", Kind: device.KindDoorLock, Initial: device.Unlocked},
		{ID: "dryer", Kind: device.KindDryer, Initial: device.Off},
		{ID: "dishwasher", Kind: device.KindDishwasher, Initial: device.Off},
	}
}

// submitAt schedules a routine submission at virtual offset d from the epoch.
func (h *testHome) submitAt(d time.Duration, r *routine.Routine) {
	h.t.Helper()
	h.submits = append(h.submits, r)
	h.sim.Post(d, func() { h.ctrl.Submit(r) })
}

// failAt injects a fail-stop failure of dev at virtual offset d: the fleet
// stops responding and the controller is notified (as the failure detector
// would).
func (h *testHome) failAt(d time.Duration, dev device.ID) {
	h.t.Helper()
	h.sim.Post(d, func() {
		if err := h.fleet.Fail(dev); err != nil {
			h.t.Fatalf("fail %s: %v", dev, err)
		}
		h.ctrl.NotifyFailure(dev)
	})
}

// restoreAt injects a device restart at virtual offset d.
func (h *testHome) restoreAt(d time.Duration, dev device.ID) {
	h.t.Helper()
	h.sim.Post(d, func() {
		if err := h.fleet.Restore(dev); err != nil {
			h.t.Fatalf("restore %s: %v", dev, err)
		}
		h.ctrl.NotifyRestart(dev)
	})
}

// run drains the simulation and returns total virtual time elapsed.
func (h *testHome) run() time.Duration {
	h.t.Helper()
	start := h.sim.Now()
	h.sim.Run()
	return h.sim.Now().Sub(start)
}

// result fetches the outcome of the n-th submitted routine (1-based ID).
func (h *testHome) result(id routine.ID) Result {
	h.t.Helper()
	res, ok := h.ctrl.Result(id)
	if !ok {
		h.t.Fatalf("no result for routine %d", id)
	}
	return res
}

// wantStatus asserts a routine's final status.
func (h *testHome) wantStatus(id routine.ID, want RoutineStatus) {
	h.t.Helper()
	if got := h.result(id).Status; got != want {
		h.t.Errorf("routine %d status = %v, want %v (reason %q)", id, got, want, h.result(id).AbortReason)
	}
}

// wantState asserts a device's ground-truth end state.
func (h *testHome) wantState(d device.ID, want device.State) {
	h.t.Helper()
	got, err := h.fleet.Status(d)
	if err != nil {
		// Failed devices keep their last physical state; State still reads it.
		got, _ = h.fleet.State(d)
	}
	if got != want {
		h.t.Errorf("device %s end state = %q, want %q", d, got, want)
	}
}

// endStateSeriallyEquivalent checks the home's end state against all
// committed routines using the congruence checker.
func (h *testHome) endStateSeriallyEquivalent(initial map[device.ID]device.State) bool {
	h.t.Helper()
	var committed []congruence.Writes
	for _, res := range h.ctrl.Results() {
		if res.Status == StatusCommitted {
			committed = append(committed, congruence.FromRoutine(res.Routine))
		}
	}
	return congruence.Check(initial, committed, h.fleet.Snapshot()).Congruent
}

// countEvents returns how many recorded events have the given kind.
func (h *testHome) countEvents(kind EventKind) int {
	n := 0
	for _, e := range h.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// finishedAll asserts every submitted routine reached a terminal state.
func (h *testHome) finishedAll() {
	h.t.Helper()
	for _, res := range h.ctrl.Results() {
		if !res.Status.Finished() {
			h.t.Errorf("routine %d (%s) did not finish: status %v", res.ID, res.Routine.Name, res.Status)
		}
	}
}

// --- canonical routines from the paper --------------------------------------

// coolingRoutine is Rcooling = {window:CLOSE; ac:ON} (§1).
func coolingRoutine() *routine.Routine {
	return routine.New("cooling",
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{Device: "ac", Target: device.On},
	)
}

// breakfastRoutine is Rbreakfast = {coffee 4 min; pancake 5 min} (§2.1).
func breakfastRoutine(name string) *routine.Routine {
	return routine.New(name,
		routine.Command{Device: "coffee", Target: device.On, Duration: 4 * time.Minute},
		routine.Command{Device: "coffee", Target: device.Off},
		routine.Command{Device: "pancake", Target: device.On, Duration: 5 * time.Minute},
		routine.Command{Device: "pancake", Target: device.Off},
	)
}

// leaveHomeRoutine is {lights:OFF (best-effort); door:LOCK (must)} (§2.2).
func leaveHomeRoutine() *routine.Routine {
	return routine.New("leave-home",
		routine.Command{Device: "light-1", Target: device.Off, BestEffort: true},
		routine.Command{Device: "light-2", Target: device.Off, BestEffort: true},
		routine.Command{Device: "door", Target: device.Locked},
	)
}

// dishwashRoutine and dryerRoutine are the GSV amperage example (§2.1).
func dishwashRoutine(d time.Duration) *routine.Routine {
	return routine.New("dishwash",
		routine.Command{Device: "dishwasher", Target: device.On, Duration: d},
		routine.Command{Device: "dishwasher", Target: device.Off},
	)
}

func dryerRoutine(d time.Duration) *routine.Routine {
	return routine.New("dryer",
		routine.Command{Device: "dryer", Target: device.On, Duration: d},
		routine.Command{Device: "dryer", Target: device.Off},
	)
}

// allLightsRoutine drives n plugs to the target state (the Fig 1 workload).
func allLightsRoutine(name string, n int, target device.State) *routine.Routine {
	r := routine.New(name)
	for i := 0; i < n; i++ {
		r.Commands = append(r.Commands, routine.Command{
			Device: device.ID(plugName(i)),
			Target: target,
		})
	}
	return r
}

func plugName(i int) string {
	return "plug-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func plugDevices(n int) []device.Info {
	out := make([]device.Info, n)
	for i := 0; i < n; i++ {
		out[i] = device.Info{ID: device.ID(plugName(i)), Kind: device.KindPlug, Initial: device.Off}
	}
	return out
}
