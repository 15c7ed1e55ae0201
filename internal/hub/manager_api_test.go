package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safehome/internal/manager"
	"safehome/internal/visibility"
)

func managerServer(t *testing.T) (*manager.Manager, *httptest.Server) {
	t.Helper()
	m := manager.New(manager.Config{Shards: 4, Home: manager.HomeConfig{Model: visibility.EV}})
	srv := httptest.NewServer(ManagerHandler(m, 2))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func doReq(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&decoded)
	return resp.StatusCode, decoded
}

func TestManagerHandlerHomeLifecycle(t *testing.T) {
	_, srv := managerServer(t)

	// Create a home.
	code, created := doReq(t, http.MethodPut, srv.URL+"/homes/apt-1?plugs=3", "")
	if code != http.StatusCreated {
		t.Fatalf("PUT /homes/apt-1 = %d, want 201 (%v)", code, created)
	}
	if created["id"] != "apt-1" || created["devices"] != float64(3) {
		t.Fatalf("created home = %v", created)
	}

	// Duplicate creation conflicts.
	if code, _ := doReq(t, http.MethodPut, srv.URL+"/homes/apt-1", ""); code != http.StatusConflict {
		t.Errorf("duplicate PUT = %d, want 409", code)
	}

	// Without ?plugs= the handler's configured default (2 here, the hub's
	// -plugs flag in production) applies.
	code, defaulted := doReq(t, http.MethodPut, srv.URL+"/homes/apt-2", "")
	if code != http.StatusCreated || defaulted["devices"] != float64(2) {
		t.Errorf("PUT without plugs = %d %v, want 201 with 2 devices", code, defaulted)
	}

	// Routines naming devices the home does not have are rejected at submit.
	badSpec := `{"routine_name":"ghost","commands":[{"device":"toaster","action":"ON"}]}`
	if code, _ := doReq(t, http.MethodPost, srv.URL+"/homes/apt-1/routines", badSpec); code != http.StatusBadRequest {
		t.Errorf("POST routine with unknown device = %d, want 400", code)
	}

	// Unknown home is 404.
	if code, _ := doReq(t, http.MethodGet, srv.URL+"/homes/nope/status", ""); code != http.StatusNotFound {
		t.Errorf("GET missing home = %d, want 404", code)
	}

	// Submit a routine; virtual clock means it is committed on return.
	spec := `{"routine_name":"lights","commands":[{"device":"plug-0","action":"ON"},{"device":"plug-1","action":"ON"}]}`
	code, sub := doReq(t, http.MethodPost, srv.URL+"/homes/apt-1/routines", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST routine = %d (%v), want 202", code, sub)
	}
	rid := int(sub["id"].(float64))

	code, res := doReq(t, http.MethodGet, fmt.Sprintf("%s/homes/apt-1/routines/%d", srv.URL, rid), "")
	if code != http.StatusOK || res["status"] != "committed" {
		t.Fatalf("GET routine = %d %v, want committed", code, res)
	}

	// Device states reflect the routine.
	code, states := doReq(t, http.MethodGet, srv.URL+"/homes/apt-1/devices", "")
	if code != http.StatusOK || states["plug-0"] != "ON" || states["plug-1"] != "ON" {
		t.Fatalf("GET devices = %d %v", code, states)
	}

	// Failure + restore round trip.
	if code, _ := doReq(t, http.MethodPost, srv.URL+"/homes/apt-1/devices/plug-2/fail", ""); code != http.StatusOK {
		t.Errorf("fail device = %d, want 200", code)
	}
	if code, _ := doReq(t, http.MethodPost, srv.URL+"/homes/apt-1/devices/plug-2/restore", ""); code != http.StatusOK {
		t.Errorf("restore device = %d, want 200", code)
	}

	// Manager status reflects totals.
	code, st := doReq(t, http.MethodGet, srv.URL+"/api/status", "")
	if code != http.StatusOK {
		t.Fatalf("GET /api/status = %d", code)
	}
	if st["homes"] != float64(2) || st["submitted"] != float64(1) || st["committed"] != float64(1) {
		t.Errorf("manager status = %v, want 2 homes / 1 submitted / 1 committed", st)
	}
}

func TestManagerHandlerHomesListing(t *testing.T) {
	m, srv := managerServer(t)
	if _, err := m.AddHomes("home", 6, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/homes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var homes []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&homes); err != nil {
		t.Fatal(err)
	}
	if len(homes) != 6 {
		t.Fatalf("GET /homes returned %d homes, want 6", len(homes))
	}
	for _, h := range homes {
		id := h["id"].(string)
		if int(h["shard"].(float64)) != m.ShardOf(manager.HomeID(id)) {
			t.Errorf("home %s listed on shard %v, ShardOf says %d", id, h["shard"], m.ShardOf(manager.HomeID(id)))
		}
	}
}

// TestPutHomeBoundsPlugs: a ?plugs= count above maxPlugs is refused before
// any device is built, and no home is created.
func TestPutHomeBoundsPlugs(t *testing.T) {
	_, srv := managerServer(t)
	code, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/homes/big?plugs=%d", srv.URL, maxPlugs+1), "")
	if code != http.StatusBadRequest {
		t.Fatalf("PUT plugs=%d = %d %v, want 400", maxPlugs+1, code, body)
	}
	if code, _ := doReq(t, http.MethodGet, srv.URL+"/homes/big/status", ""); code != http.StatusNotFound {
		t.Errorf("GET /homes/big/status after the refused PUT = %d, want 404", code)
	}
	if code, _ := doReq(t, http.MethodPut, fmt.Sprintf("%s/homes/big?plugs=%d", srv.URL, maxPlugs), ""); code != http.StatusCreated {
		t.Errorf("PUT plugs=%d = %d, want 201", maxPlugs, code)
	}
}
