package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/visibility"
)

func TestScheduleAfterFiresOnce(t *testing.T) {
	m, _ := newTestHub(t)
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	handle, err := m.ScheduleAfter(Home, "cooling", 10*time.Millisecond)
	if err != nil {
		t.Fatalf("ScheduleAfter: %v", err)
	}
	if trigs, err := m.Triggers(Home); err != nil || len(trigs) != 1 {
		t.Fatalf("Triggers = %v, %v; want 1 active", trigs, err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for len(gen(t, m).Results()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduled trigger never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitIdle(t, m)
	res := gen(t, m).Results()[0]
	if res.Status != visibility.StatusCommitted {
		t.Fatalf("triggered routine = %v (%s)", res.Status, res.AbortReason)
	}
	// One-shot triggers disappear once fired.
	deadline = time.Now().Add(time.Second)
	for len(gen(t, m).Triggers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("one-shot trigger still active: %v", gen(t, m).Triggers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = handle
}

func TestScheduleEveryRepeats(t *testing.T) {
	m, _ := newTestHub(t)
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	handle, err := m.ScheduleEvery(Home, "cooling", 15*time.Millisecond)
	if err != nil {
		t.Fatalf("ScheduleEvery: %v", err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for len(gen(t, m).Results()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("recurring trigger fired %d times, want >= 2", len(gen(t, m).Results()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.CancelTrigger(Home, handle)
	fired := len(gen(t, m).Results())
	time.Sleep(60 * time.Millisecond)
	if extra := len(gen(t, m).Results()) - fired; extra > 1 {
		t.Errorf("trigger kept firing after cancellation (%d extra submissions)", extra)
	}
	if trigs := gen(t, m).Triggers(); len(trigs) != 0 {
		t.Errorf("Triggers after cancel = %v, want none", trigs)
	}
	waitIdle(t, m)
}

func TestScheduleValidation(t *testing.T) {
	m, _ := newTestHub(t)
	if _, err := m.ScheduleAfter(Home, "missing", time.Millisecond); err == nil {
		t.Error("scheduling an unknown routine should fail")
	}
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ScheduleEvery(Home, "cooling", 0); err == nil {
		t.Error("a non-positive interval should be rejected")
	}
}

func TestTriggerHTTPEndpoints(t *testing.T) {
	m, _ := newTestHub(t)
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(HomeHandler(m, Home))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/bank/cooling/schedule?every=50ms", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("schedule: %v %v", resp.StatusCode, err)
	}
	var created struct {
		Handle int64 `json:"handle"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var triggers []ScheduledTrigger
	resp, err = http.Get(srv.URL + "/api/triggers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&triggers); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(triggers) != 1 || triggers[0].Routine != "cooling" {
		t.Fatalf("triggers = %+v", triggers)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/triggers/%d", srv.URL, created.Handle), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if trigs := gen(t, m).Triggers(); len(trigs) != 0 {
		t.Fatalf("triggers after cancel = %v", trigs)
	}

	// Bad requests.
	resp, _ = http.Post(srv.URL+"/api/bank/cooling/schedule", "application/json", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schedule without duration = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(srv.URL+"/api/bank/missing/schedule?after=1s", "application/json", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schedule unknown routine = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	waitIdle(t, m)
}

func TestCloseCancelsTriggers(t *testing.T) {
	reg := testRegistry()
	m, err := New(Config{Model: visibility.EV, DefaultShort: time.Millisecond}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreRoutine(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ScheduleEvery(Home, "cooling", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if trigs, err := m.Triggers(Home); err != nil || len(trigs) != 0 {
		t.Errorf("triggers after Close = %v, %v; want none", trigs, err)
	}
	if _, err := m.ScheduleAfter(Home, "cooling", time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("scheduling after Close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}
