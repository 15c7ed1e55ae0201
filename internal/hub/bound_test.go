package hub

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

// TestDeviceBoundHomesBehindManagerHandler: a manager whose homes are bound
// to devices serves them through ManagerHandler on the wall clock, a device
// failing in one home aborts that home's routine and leaves the other's
// alone, a bound home refuses to hibernate, and /metrics carries the
// per-device breaker families.
func TestDeviceBoundHomesBehindManagerHandler(t *testing.T) {
	const probe = 20 * time.Millisecond
	var mu sync.Mutex
	fleets := map[manager.HomeID]*device.Fleet{}
	m := manager.New(manager.Config{
		Shards:   2,
		DataDir:  t.TempDir(),
		EventLog: 64,
		Home: manager.HomeConfig{
			Model:           visibility.EV,
			DefaultShort:    5 * time.Millisecond,
			FailureInterval: probe,
			Actuator: func(id manager.HomeID, reg *device.Registry) device.Actuator {
				mu.Lock()
				defer mu.Unlock()
				fleets[id] = device.NewFleet(reg)
				return fleets[id]
			},
		},
	})
	t.Cleanup(m.Close)
	homes := []manager.HomeID{"north", "south"}
	for _, id := range homes {
		if err := m.AddHome(id, testRegistry().All()...); err != nil {
			t.Fatal(err)
		}
	}
	m.Start()
	srv := ManagerHandler(m, 2)

	// submit posts the cooling routine to the home and waits for its outcome.
	submit := func(id manager.HomeID) string {
		t.Helper()
		spec := `{"routine_name":"cooling","commands":[{"device":"window","action":"CLOSED"},{"device":"ac","action":"ON"}]}`
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/homes/"+string(id)+"/routines", strings.NewReader(spec)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /homes/%s/routines = %d %s", id, rec.Code, rec.Body)
		}
		var posted struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &posted); err != nil {
			t.Fatal(err)
		}
		path := "/homes/" + string(id) + "/routines/" + strconv.FormatInt(posted.ID, 10)
		deadline := time.Now().Add(5 * time.Second)
		for {
			var res struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(get(t, srv, path).Body.Bytes(), &res); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if res.Status == "committed" || res.Status == "aborted" {
				return res.Status
			}
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: still %q", path, res.Status)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, id := range homes {
		if got := submit(id); got != "committed" {
			t.Fatalf("home %s: routine %s, want committed", id, got)
		}
		var st manager.HomeStatus
		if err := json.Unmarshal(get(t, srv, "/homes/"+string(id)+"/status").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Health != "ok" || st.Routines != 1 || st.Devices != 3 {
			t.Errorf("home %s status = %+v", id, st)
		}
	}

	// The AC fails in the north home only; its detector notices.
	if err := fleets["north"].Fail("ac"); err != nil {
		t.Fatal(err)
	}
	north, err := m.Runtime("north")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * probe)
	for north.Detector().Up("ac") {
		if time.Now().After(deadline) {
			t.Fatal("the north home's detector never noticed the AC failure")
		}
		time.Sleep(time.Millisecond)
	}
	if got := submit("north"); got != "aborted" {
		t.Errorf("north routine after its AC failed: %s, want aborted", got)
	}
	if got := submit("south"); got != "committed" {
		t.Errorf("south routine while the north AC is down: %s, want committed", got)
	}

	if err := m.FreezeHome("south"); err == nil {
		t.Error("FreezeHome froze a device-bound home")
	}

	fams := scrape(t, srv)
	for _, name := range []string{"safehome_breaker_opens_total", "safehome_breaker_half_opens_total",
		"safehome_breaker_short_circuits_total", "safehome_breaker_open"} {
		f, ok := fams[name]
		if !ok {
			t.Errorf("no %s family", name)
			continue
		}
		seen := map[string]int{}
		for _, s := range f.Samples {
			seen[s.Labels["home"]]++
		}
		if seen["north"] == 0 || seen["south"] == 0 {
			t.Errorf("%s series per home = %v, want both homes' commanded devices", name, seen)
		}
	}
}
