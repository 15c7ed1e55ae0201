package hub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

func testRegistry() *device.Registry {
	return device.NewRegistry(
		device.Info{ID: "window", Kind: device.KindWindow, Initial: device.Open},
		device.Info{ID: "ac", Kind: device.KindAC, Initial: device.Off},
		device.Info{ID: "light", Kind: device.KindLight, Initial: device.Off},
	)
}

func newTestHub(t *testing.T) (*manager.Manager, *device.Fleet) {
	t.Helper()
	reg := testRegistry()
	fleet := device.NewFleet(reg)
	m, err := New(Config{Model: visibility.EV, DefaultShort: 5 * time.Millisecond,
		FailureInterval: 20 * time.Millisecond}, reg, fleet)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m, fleet
}

// gen is the runtime generation the hub's home currently holds: the one its
// single-home reads answer from, also while it restarts.
func gen(t *testing.T, m *manager.Manager) *rt.HomeRuntime {
	t.Helper()
	slot, err := m.Slot(Home)
	if err != nil {
		t.Fatal(err)
	}
	return slot.Load()
}

func waitIdle(t *testing.T, m *manager.Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gen(t, m).PendingCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("hub did not drain in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func coolingRoutine() *routine.Routine {
	return routine.New("cooling",
		routine.Command{Device: "window", Target: device.Closed},
		routine.Command{Device: "ac", Target: device.On})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, device.NewRegistry(), device.NewFleet(device.NewRegistry())); err == nil {
		t.Error("New with empty registry should fail")
	}
	if _, err := New(Config{}, testRegistry(), nil); err == nil {
		t.Error("New with nil actuator should fail")
	}
}

func TestSubmitAndResults(t *testing.T) {
	m, fleet := newTestHub(t)
	id, err := m.Submit(Home, coolingRoutine())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitIdle(t, m)

	res, ok, err := m.Result(Home, id)
	if err != nil || !ok || res.Status != visibility.StatusCommitted {
		t.Fatalf("result = %+v, %v, %v; want committed", res, ok, err)
	}
	if st, _ := fleet.Status("window"); st != device.Closed {
		t.Errorf("window = %q, want CLOSED", st)
	}
	devices, err := DevicesOf(m, Home)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range devices {
		if d.Info.ID == "ac" {
			found = true
			if d.State != device.On || !d.Up {
				t.Errorf("ac status = %+v, want ON and up", d)
			}
		}
	}
	if !found {
		t.Error("DevicesOf missing ac")
	}
	if got, err := StatusOf(m, Home); err != nil || got.Routines != 1 || got.Pending != 0 || got.Model != "EV" {
		t.Errorf("StatusOf = %+v, %v", got, err)
	}
	if len(gen(t, m).Events()) == 0 {
		t.Error("expected recorded events")
	}
}

func TestSubmitRejectsUnknownDevice(t *testing.T) {
	m, _ := newTestHub(t)
	_, err := m.Submit(Home, routine.New("bad", routine.Command{Device: "ghost", Target: device.On}))
	if err == nil {
		t.Fatal("submitting a routine with an unknown device should fail")
	}
}

func TestBankStoreAndTrigger(t *testing.T) {
	m, _ := newTestHub(t)
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatalf("StoreRoutine: %v", err)
	}
	if names, err := m.StoredRoutines(Home); err != nil || len(names) != 1 || names[0] != "cooling" {
		t.Fatalf("StoredRoutines = %v, %v", names, err)
	}
	id, err := m.Trigger(Home, "cooling")
	if err != nil || id == routine.None {
		t.Fatalf("Trigger: %v (id %d)", err, id)
	}
	if _, err := m.Trigger(Home, "missing"); err == nil {
		t.Error("triggering a missing routine should fail")
	}
	waitIdle(t, m)
}

func TestFailureDetectorIntegration(t *testing.T) {
	m, fleet := newTestHub(t)
	m.Start()
	defer m.Close()

	if err := fleet.Fail("ac"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for gen(t, m).Detector().Up("ac") {
		if time.Now().After(deadline) {
			t.Fatal("detector never noticed the AC failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A routine whose must command needs the dead AC aborts; the window close
	// is rolled back.
	id, err := m.Submit(Home, coolingRoutine())
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	res, _, _ := m.Result(Home, id)
	if res.Status != visibility.StatusAborted {
		t.Fatalf("routine status = %v, want aborted (reason %q)", res.Status, res.AbortReason)
	}
}

// TestRestartedHubKeepsDetecting: a supervised restart re-arms the failure
// detector with no owner callback — the new generation notices a device
// failing after the restart and aborts a routine that needs it.
func TestRestartedHubKeepsDetecting(t *testing.T) {
	const probe = 20 * time.Millisecond
	reg := testRegistry()
	fleet := device.NewFleet(reg)
	m, err := New(Config{Model: visibility.EV, DefaultShort: 5 * time.Millisecond, FailureInterval: probe,
		supervisor: rt.SupervisorConfig{Backoff: time.Millisecond, BackoffCap: time.Millisecond}}, reg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Start()
	slot, err := m.Slot(Home)
	if err != nil {
		t.Fatal(err)
	}

	first := slot.Load()
	first.PostTimer(func() { panic("test: loop fault") })
	deadline := time.Now().Add(5 * time.Second)
	for slot.Load() == first || !slot.Serving() {
		if time.Now().After(deadline) {
			t.Fatal("hub was not restarted")
		}
		time.Sleep(time.Millisecond)
	}

	if err := fleet.Fail("ac"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(50 * probe)
	for slot.Load().Detector().Up("ac") {
		if time.Now().After(deadline) {
			t.Fatal("the restarted hub's detector never noticed the AC failure")
		}
		time.Sleep(time.Millisecond)
	}
	id, err := m.Submit(Home, coolingRoutine())
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	if res, _, _ := m.Result(Home, id); res.Status != visibility.StatusAborted {
		t.Fatalf("routine status = %v, want aborted (reason %q)", res.Status, res.AbortReason)
	}
}

// --- HTTP API ------------------------------------------------------------------

func TestHTTPAPIEndToEnd(t *testing.T) {
	m, _ := newTestHub(t)
	srv := httptest.NewServer(HomeHandler(m, Home))
	defer srv.Close()

	get := func(path string, into any) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decoding %s: %v", path, err)
			}
		}
		return resp
	}

	var status Status
	get("/api/status", &status)
	if status.Model != "EV" || status.Devices != 3 {
		t.Fatalf("status = %+v", status)
	}

	var devices []DeviceStatus
	get("/api/devices", &devices)
	if len(devices) != 3 {
		t.Fatalf("devices = %v", devices)
	}

	// Store a routine definition in the bank, then trigger it.
	spec, err := routine.MarshalSpec(coolingRoutine())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/bank", "application/json", bytes.NewReader(spec))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/bank = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/api/bank/cooling/trigger", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST trigger = %v %v", resp.StatusCode, err)
	}
	var triggered struct {
		ID int64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&triggered); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Submit a second routine directly.
	resp, err = http.Post(srv.URL+"/api/routines", "application/json", bytes.NewReader(spec))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/routines = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	waitIdle(t, m)

	var results []map[string]any
	get("/api/routines", &results)
	if len(results) != 2 {
		t.Fatalf("results = %v, want 2 routines", results)
	}

	var one map[string]any
	get(fmt.Sprintf("/api/routines/%d", triggered.ID), &one)
	if one["status"] != "committed" {
		t.Fatalf("routine %d = %v, want committed", triggered.ID, one)
	}

	var events []map[string]any
	get("/api/events", &events)
	if len(events) == 0 {
		t.Fatal("no events reported")
	}

	// Error paths.
	if resp := get("/api/routines/999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing routine status = %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/api/routines", "application/json", bytes.NewReader([]byte("{")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/api/bank/nope/trigger", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trigger missing routine status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}
