package safehome

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/hub"
	"safehome/internal/manager"
)

func demoDevices() []DeviceInfo {
	return []DeviceInfo{
		{ID: "window", Kind: "window", Initial: Open},
		{ID: "ac", Kind: "ac", Initial: Off},
		{ID: "coffee", Kind: "coffee-maker", Initial: Off},
		{ID: "door", Kind: "door-lock", Initial: Unlocked},
	}
}

func cooling() *Routine {
	return NewRoutine("cooling",
		Command{Device: "window", Target: Closed},
		Command{Device: "ac", Target: On})
}

func TestSimulatedHomeQuickstart(t *testing.T) {
	home, err := NewSimulatedHome(Config{Model: EV}, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	id, err := home.Submit(cooling())
	if err != nil {
		t.Fatal(err)
	}
	if err := home.SubmitAfter(50*time.Millisecond, NewRoutine("warm",
		Command{Device: "window", Target: Open},
		Command{Device: "ac", Target: Off})); err != nil {
		t.Fatal(err)
	}
	elapsed := home.Run()
	if elapsed <= 0 {
		t.Errorf("Run elapsed = %v, want > 0", elapsed)
	}
	res, ok := home.Result(id)
	if !ok || res.Status != StatusCommitted {
		t.Fatalf("cooling routine = %+v, %v", res, ok)
	}
	if got := home.DeviceState("ac"); got != Off {
		t.Errorf("ac end state = %q, want OFF (the warm routine ran last)", got)
	}
	if home.PendingCount() != 0 {
		t.Errorf("pending = %d, want 0", home.PendingCount())
	}
	if home.Model() != EV {
		t.Errorf("model = %v, want EV", home.Model())
	}
}

func TestSimulatedHomeValidation(t *testing.T) {
	if _, err := NewSimulatedHome(Config{}); err == nil {
		t.Error("a home with no devices should be rejected")
	}
	home, err := NewSimulatedHome(Config{Model: EV}, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Submit(NewRoutine("empty")); err == nil {
		t.Error("an empty routine should be rejected")
	}
}

func TestSimulatedHomeFailureInjection(t *testing.T) {
	home, err := NewSimulatedHome(Config{Model: EV}, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	home.FailDeviceAfter(0, "ac")
	if err := home.SubmitAfter(10*time.Millisecond, cooling()); err != nil {
		t.Fatal(err)
	}
	home.RestoreDeviceAfter(time.Hour, "ac")
	home.Run()
	results := home.Results()
	if len(results) != 1 || results[0].Status != StatusAborted {
		t.Fatalf("results = %+v, want one aborted routine", results)
	}
	// Rollback restored the window.
	if got := home.DeviceState("window"); got != Open {
		t.Errorf("window = %q, want OPEN after rollback", got)
	}
}

func TestSimulatedHomeObserver(t *testing.T) {
	var events int
	home, err := NewSimulatedHome(Config{Model: GSV, Observer: func(Event) { events++ }}, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Submit(cooling()); err != nil {
		t.Fatal(err)
	}
	home.Run()
	if events == 0 {
		t.Error("observer received no events")
	}
}

// TestZeroConfigRunsWV pins the model default of every entry point: a zero
// Config runs WV (visibility.WV is the zero Model) in the hub, the root live
// home and the multi-tenant manager alike.
func TestZeroConfigRunsWV(t *testing.T) {
	reg := device.Plugs(2)
	h, err := hub.New(hub.Config{}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Status().Model; got != "WV" {
		t.Errorf("hub.New(Config{}) runs model %q, want WV", got)
	}

	home, err := NewLiveHome(Config{}, NewFleet(Plugs(2)...), Plugs(2)...)
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	if got := home.Status().Model; got != "WV" {
		t.Errorf("NewLiveHome(Config{}) runs model %q, want WV", got)
	}

	m := manager.New(manager.Config{})
	defer m.Close()
	if err := m.AddHome("h", reg.All()...); err != nil {
		t.Fatal(err)
	}
	st, err := m.HomeStatus("h")
	if err != nil {
		t.Fatal(err)
	}
	if st.Model != "WV" {
		t.Errorf("manager.New(Config{}) runs model %q, want WV", st.Model)
	}
}

// TestLiveHomeRefusesSimulatedOnlyFields: the lease switches, the observer
// and the modelled actuation latency reach simulated homes only, so a live
// home refuses them by name instead of running with its leases on, the
// observer never called and no latency added.
func TestLiveHomeRefusesSimulatedOnlyFields(t *testing.T) {
	for field, cfg := range map[string]Config{
		"DisablePreLease":  {Model: EV, DisablePreLease: true},
		"DisablePostLease": {Model: EV, DisablePostLease: true},
		"Observer":         {Model: EV, Observer: func(Event) {}},
		"ActuationLatency": {Model: EV, ActuationLatency: 20 * time.Millisecond},
	} {
		home, err := NewLiveHome(cfg, NewFleet(Plugs(2)...), Plugs(2)...)
		if err == nil {
			home.Close()
			t.Errorf("NewLiveHome with %s succeeded", field)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("NewLiveHome with %s: error %q does not name the field", field, err)
		}
	}
}

func TestLiveHomeOverInMemoryFleet(t *testing.T) {
	fleet := NewFleet(demoDevices()...)
	home, err := NewLiveHome(Config{Model: EV, DefaultShortCommand: 5 * time.Millisecond},
		fleet, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()

	if err := home.Store(cooling()); err != nil {
		t.Fatal(err)
	}
	if _, err := home.Trigger("cooling"); err != nil {
		t.Fatal(err)
	}
	if err := home.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := home.Results()
	if len(results) != 1 || results[0].Status != StatusCommitted {
		t.Fatalf("results = %+v", results)
	}
	status := home.Status()
	if status.Model != "EV" || status.Devices != 4 {
		t.Errorf("status = %+v", status)
	}
	if len(home.Events()) == 0 {
		t.Error("no events recorded")
	}
	if home.HTTPHandler() == nil {
		t.Error("HTTPHandler should not be nil")
	}
	for _, d := range home.Devices() {
		if d.Info.ID == "window" && d.State != Closed {
			t.Errorf("window committed state = %q, want CLOSED", d.State)
		}
	}
}

// TestSecondLiveHomeOnAnOwnedDataDirIsRefused: a data directory has one
// owner. A live home on the DataDir of a running one fails to build and
// leaves every file under that directory byte-identical, and the owner
// keeps serving durably.
func TestSecondLiveHomeOnAnOwnedDataDirIsRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Model: EV, DefaultShortCommand: time.Millisecond, DataDir: dir}
	owner, err := NewLiveHome(cfg, NewFleet(demoDevices()...), demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if _, err := owner.Submit(cooling()); err != nil {
		t.Fatal(err)
	}
	if err := owner.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		out := make(map[string]string)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			buf, err := os.ReadFile(path)
			out[path] = string(buf)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := files()

	second, err := NewLiveHome(cfg, NewFleet(demoDevices()...), demoDevices()...)
	if err == nil {
		second.Close()
		t.Fatal("a second live home opened a data directory another one owns")
	}
	if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second live home: err = %v, want the directory in use", err)
	}
	if after := files(); !maps.Equal(after, before) {
		t.Fatal("the refused live home changed files under the owner's data directory")
	}
	if _, err := owner.Submit(cooling()); err != nil {
		t.Fatal(err)
	}
	if st := owner.Status(); !st.Durable {
		t.Fatalf("owner lost durability: %+v", st)
	}
}

func TestLiveHomeOverKasaEmulator(t *testing.T) {
	devices := Plugs(3)
	em := NewKasaEmulator(devices...)
	addr, err := em.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()

	ids := make([]DeviceID, len(devices))
	for i, d := range devices {
		ids[i] = d.ID
	}
	driver := NewKasaEmulatorDriver(addr, ids)
	home, err := NewLiveHome(Config{Model: EV, DefaultShortCommand: 5 * time.Millisecond}, driver, devices...)
	if err != nil {
		t.Fatal(err)
	}
	home.Start()
	defer home.Close()

	r := NewRoutine("all-on")
	for _, id := range ids {
		r.Commands = append(r.Commands, Command{Device: id, Target: On})
	}
	if _, err := home.Submit(r); err != nil {
		t.Fatal(err)
	}
	if err := home.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, st := range em.Fleet().Snapshot() {
		if st != On {
			t.Errorf("emulated plug %s = %q, want ON", id, st)
		}
	}
}

func TestLiveHomeScheduledTrigger(t *testing.T) {
	fleet := NewFleet(demoDevices()...)
	home, err := NewLiveHome(Config{Model: EV, DefaultShortCommand: 2 * time.Millisecond},
		fleet, demoDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()

	if err := home.Store(cooling()); err != nil {
		t.Fatal(err)
	}
	if _, err := home.ScheduleAfter("cooling", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(home.Triggers()) != 1 {
		t.Fatalf("Triggers = %v, want one", home.Triggers())
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(home.Results()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduled routine never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := home.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := home.Results()[0].Status; got != StatusCommitted {
		t.Fatalf("scheduled routine status = %v", got)
	}

	// A recurring trigger can be cancelled.
	handle, err := home.ScheduleEvery("cooling", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	home.CancelTrigger(handle)
	if len(home.Triggers()) != 0 {
		t.Fatalf("Triggers after cancel = %v, want none", home.Triggers())
	}
}

func TestParsersAndBuilders(t *testing.T) {
	if m, err := ParseModel("psv"); err != nil || m != PSV {
		t.Errorf("ParseModel(psv) = %v, %v", m, err)
	}
	if k, err := ParseScheduler("fcfs"); err != nil || k != SchedulerFCFS {
		t.Errorf("ParseScheduler(fcfs) = %v, %v", k, err)
	}
	spec, err := MarshalRoutineSpec(cooling())
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRoutineSpec(spec)
	if err != nil || back.Name != "cooling" || len(back.Commands) != 2 {
		t.Errorf("spec round trip = %+v, %v", back, err)
	}
	bank := NewRoutineBank()
	if err := bank.Store(cooling()); err != nil || bank.Len() != 1 {
		t.Errorf("bank store failed: %v", err)
	}
	if len(Plugs(4)) != 4 {
		t.Errorf("Plugs(4) = %d entries", len(Plugs(4)))
	}
	if reg := NewRegistry(demoDevices()...); reg.Len() != 4 {
		t.Errorf("NewRegistry = %d devices", reg.Len())
	}
}
