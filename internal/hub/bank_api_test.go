package hub

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/telemetry"
	"safehome/internal/visibility"
)

// The routine bank and its triggers per home: /homes/{id}/bank… and
// /homes/{id}/triggers…, the routes the single hub's /api alias shares.

const bankSpec = `{"routine_name":"evening","commands":[{"device":"plug-0","action":"ON"},{"device":"plug-1","action":"OFF"}]}`

// liveManager is a wall-clock manager (a trigger an hour out stays armed)
// whose commands hold for a millisecond.
func liveManager(t *testing.T, cfg manager.Config) (*manager.Manager, http.Handler) {
	t.Helper()
	cfg.Shards, cfg.Clock = 1, manager.ClockLive
	cfg.Home = manager.HomeConfig{Model: visibility.EV, DefaultShort: time.Millisecond}
	m := manager.New(cfg)
	t.Cleanup(m.Close)
	return m, ManagerHandler(m, 2)
}

// step sends one request and requires its status; it returns the body.
func step(t *testing.T, h http.Handler, method, target, body string, want int) string {
	t.Helper()
	rec := serveStep(h, wireStep{method: method, target: target, body: body})
	if rec.Code != want {
		t.Fatalf("%s %s = %d %s, want %d", method, target, rec.Code, rec.Body, want)
	}
	return rec.Body.String()
}

// triggersOf lists a home's armed triggers through the API.
func triggersOf(t *testing.T, h http.Handler, home string) []ScheduledTrigger {
	t.Helper()
	var trigs []ScheduledTrigger
	if err := json.Unmarshal([]byte(step(t, h, "GET", "/homes/"+home+"/triggers", "", http.StatusOK)), &trigs); err != nil {
		t.Fatal(err)
	}
	return trigs
}

// waitCommitted polls one routine until it has committed.
func waitCommitted(t *testing.T, h http.Handler, target string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(step(t, h, "GET", target, "", http.StatusOK), `"status":"committed"`) {
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never reported committed", target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHomeBankAndTriggerRoutes(t *testing.T) {
	_, srv := liveManager(t, manager.Config{})
	step(t, srv, "PUT", "/homes/a", "", http.StatusCreated)
	step(t, srv, "PUT", "/homes/b", "", http.StatusCreated)

	if got := step(t, srv, "POST", "/homes/a/bank", bankSpec, http.StatusCreated); got != `{"stored":"evening"}`+"\n" {
		t.Errorf("POST bank = %q", got)
	}
	if got := step(t, srv, "GET", "/homes/a/bank", "", http.StatusOK); got != `["evening"]`+"\n" {
		t.Errorf("GET bank = %q", got)
	}
	// The bank is per home.
	if got := step(t, srv, "GET", "/homes/b/bank", "", http.StatusOK); got != "[]\n" {
		t.Errorf("GET b's bank = %q, want empty", got)
	}
	if got := step(t, srv, "POST", "/homes/b/bank/evening/trigger", "", http.StatusNotFound); !strings.Contains(got, `b: no stored routine named \"evening\"`) {
		t.Errorf("trigger of another home's routine = %q", got)
	}

	if got := step(t, srv, "POST", "/homes/a/bank/evening/trigger", "", http.StatusAccepted); got != `{"id":1}`+"\n" {
		t.Errorf("POST trigger = %q", got)
	}
	waitCommitted(t, srv, "/homes/a/routines/1")

	for i, after := range []string{"1h", "3h", "2h"} {
		want := `{"handle":` + strconv.Itoa(i+1) + "}\n"
		if got := step(t, srv, "POST", "/homes/a/bank/evening/schedule?after="+after, "", http.StatusCreated); got != want {
			t.Errorf("schedule after %s = %q, want %q", after, got, want)
		}
	}
	step(t, srv, "POST", "/homes/a/bank/evening/schedule?every=1h", "", http.StatusCreated)
	trigs := triggersOf(t, srv, "a")
	if len(trigs) != 4 {
		t.Fatalf("triggers = %+v, want 4", trigs)
	}
	for i, tr := range trigs {
		if tr.Handle != TriggerHandle(i+1) || tr.Routine != "evening" {
			t.Errorf("trigger %d of the listing = %+v, want handle %d", i, tr, i+1)
		}
	}
	if trigs[3].Interval != time.Hour {
		t.Errorf("recurring trigger interval = %v, want 1h", trigs[3].Interval)
	}
	step(t, srv, "DELETE", "/homes/a/triggers/2", "", http.StatusOK)
	if trigs := triggersOf(t, srv, "a"); len(trigs) != 3 || trigs[1].Handle != 3 {
		t.Errorf("triggers after cancelling 2 = %+v", trigs)
	}
	if trigs := triggersOf(t, srv, "b"); len(trigs) != 0 {
		t.Errorf("home b has triggers %+v", trigs)
	}

	// Bad requests, and homes that are not there.
	step(t, srv, "POST", "/homes/a/bank", `{"routine_name":"x","commands":[{"device":"nope","action":"ON"}]}`, http.StatusBadRequest)
	step(t, srv, "POST", "/homes/a/bank", `[]`, http.StatusBadRequest)
	step(t, srv, "POST", "/homes/a/bank/evening/schedule", "", http.StatusBadRequest)
	step(t, srv, "POST", "/homes/a/bank/evening/schedule?after=soon", "", http.StatusBadRequest)
	step(t, srv, "POST", "/homes/a/bank/nope/schedule?after=1h", "", http.StatusBadRequest)
	step(t, srv, "DELETE", "/homes/a/triggers/x", "", http.StatusBadRequest)
	for _, req := range [][2]string{
		{"GET", "/homes/nobody/bank"}, {"POST", "/homes/nobody/bank"}, {"POST", "/homes/nobody/bank/evening/trigger"},
		{"POST", "/homes/nobody/bank/evening/schedule?after=1h"}, {"GET", "/homes/nobody/triggers"}, {"DELETE", "/homes/nobody/triggers/1"},
	} {
		body := ""
		if req[1] == "/homes/nobody/bank" && req[0] == "POST" {
			body = bankSpec
		}
		step(t, srv, req[0], req[1], body, http.StatusNotFound)
	}
}

// TestDurableHomeBankAndTriggersSurviveCrash: a journaled home's stored
// routine and armed trigger come back after a crash and RecoverHomes.
func TestDurableHomeBankAndTriggersSurviveCrash(t *testing.T) {
	cfg := manager.Config{DataDir: t.TempDir()}
	m, srv := liveManager(t, cfg)
	step(t, srv, "PUT", "/homes/d", "", http.StatusCreated)
	step(t, srv, "POST", "/homes/d/bank", bankSpec, http.StatusCreated)
	step(t, srv, "POST", "/homes/d/bank/evening/schedule?after=1h", "", http.StatusCreated)
	step(t, srv, "POST", "/homes/d/bank/evening/trigger", "", http.StatusAccepted)
	waitCommitted(t, srv, "/homes/d/routines/1")
	before := triggersOf(t, srv, "d")
	m.Crash()

	m2, srv2 := liveManager(t, cfg)
	if ids, err := m2.RecoverHomes(); err != nil || len(ids) != 1 {
		t.Fatalf("RecoverHomes = %v, %v", ids, err)
	}
	if got := step(t, srv2, "GET", "/homes/d/bank", "", http.StatusOK); got != `["evening"]`+"\n" {
		t.Errorf("recovered bank = %q", got)
	}
	after := triggersOf(t, srv2, "d")
	if len(after) != 1 || after[0].Handle != before[0].Handle || after[0].Routine != "evening" ||
		!after[0].NextFire.Equal(before[0].NextFire) {
		t.Errorf("recovered triggers = %+v, armed %+v", after, before)
	}
	waitCommitted(t, srv2, "/homes/d/routines/1")
	// The recovered bank dispatches, and the handle sequence continues.
	step(t, srv2, "POST", "/homes/d/bank/evening/trigger", "", http.StatusAccepted)
	waitCommitted(t, srv2, "/homes/d/routines/2")
	if got := step(t, srv2, "POST", "/homes/d/bank/evening/schedule?after=2h", "", http.StatusCreated); got != `{"handle":2}`+"\n" {
		t.Errorf("post-recovery schedule = %q, want handle 2", got)
	}
}

// TestFrozenHomeBankWakesOnce: every bank and trigger mutation on a
// hibernated home wakes it exactly once, and a trigger armed before a
// freeze is still listed after it.
func TestFrozenHomeBankWakesOnce(t *testing.T) {
	m, srv := liveManager(t, manager.Config{DataDir: t.TempDir(), HibernateAfter: time.Hour})
	wakes := func() float64 {
		return telemetry.CounterTotals(scrape(t, srv))["safehome_hibernation_wakes_total"]
	}
	step(t, srv, "PUT", "/homes/cold", "", http.StatusCreated) // registered frozen
	for _, req := range []struct{ method, target, body string }{
		{"POST", "/homes/cold/bank", bankSpec},
		{"POST", "/homes/cold/bank/evening/schedule?after=1h", ""},
		{"POST", "/homes/cold/bank/evening/schedule?after=2h", ""},
		{"DELETE", "/homes/cold/triggers/2", ""},
		{"POST", "/homes/cold/bank/evening/trigger", ""},
	} {
		if st, _ := m.HomeStatus("cold"); st.Health != rt.HealthFrozen {
			if err := m.FreezeHome("cold"); err != nil {
				t.Fatal(err)
			}
		}
		before := wakes()
		rec := serveStep(srv, wireStep{method: req.method, target: req.target, body: req.body})
		if rec.Code >= 300 {
			t.Fatalf("%s %s on a frozen home = %d %s", req.method, req.target, rec.Code, rec.Body)
		}
		if got := wakes() - before; got != 1 {
			t.Errorf("%s %s on a frozen home ran %v wakes, want 1", req.method, req.target, got)
		}
		waitIdleHome(t, m, "cold")
	}
	if err := m.FreezeHome("cold"); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.HomeStatus("cold"); st.NextFire.IsZero() {
		t.Errorf("frozen home lost its trigger deadline: %+v", st)
	}
	if trigs := triggersOf(t, srv, "cold"); len(trigs) != 1 || trigs[0].Handle != 1 {
		t.Errorf("triggers after a freeze = %+v, want handle 1", trigs)
	}
	step(t, srv, "GET", "/homes/cold/routines/1", "", http.StatusOK)
}

// waitIdleHome waits until the home has nothing pending, so a freeze is not
// refused for a routine in flight.
func waitIdleHome(t *testing.T, m *manager.Manager, id manager.HomeID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.HomeStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == 0 && st.Active == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("home %s still busy: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAliasDeviceFaultsAnswerAsTheManager: /api/devices/{dev}/fail and
// restore are the manager's: on a device-bound home, with no simulated fleet
// to inject into, they answer its 400.
func TestAliasDeviceFaultsAnswerAsTheManager(t *testing.T) {
	m, _ := newTestHub(t)
	srv := HomeHandler(m, Home)
	for _, op := range []string{"fail", "restore"} {
		var err error
		if op == "fail" {
			err = m.FailDevice(Home, "ac")
		} else {
			err = m.RestoreDevice(Home, "ac")
		}
		if err == nil {
			t.Fatalf("%s on a device-bound home succeeded", op)
		}
		got := step(t, srv, "POST", "/api/devices/ac/"+op, "", http.StatusBadRequest)
		if want, _ := json.Marshal(map[string]string{"error": err.Error()}); got != string(want)+"\n" {
			t.Errorf("POST /api/devices/ac/%s = %q, want %s", op, got, want)
		}
	}
}
