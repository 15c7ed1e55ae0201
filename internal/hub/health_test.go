package hub

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

func newSupervisedHub(t *testing.T, sup rt.SupervisorConfig) *manager.Manager {
	t.Helper()
	reg := testRegistry()
	m, err := New(Config{Model: visibility.EV, DefaultShort: 5 * time.Millisecond,
		FailureInterval: time.Hour, supervisor: sup}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func get(t *testing.T, srv http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestHealthzAndReadyzWhenServing(t *testing.T) {
	m := newSupervisedHub(t, rt.SupervisorConfig{})
	srv := HomeHandler(m, Home)

	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", rec.Code)
	}
	rec := get(t, srv, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if body.Status != string(rt.HealthOK) {
		t.Errorf("readyz status = %q, want %q", body.Status, rt.HealthOK)
	}
}

func TestReadyz503WhileRestartingThenRecovers(t *testing.T) {
	m := newSupervisedHub(t, rt.SupervisorConfig{
		Backoff: 300 * time.Millisecond, BackoffCap: 300 * time.Millisecond})
	srv := HomeHandler(m, Home)

	gen(t, m).PostTimer(func() { panic("test: injected fault") })

	// The restart backoff holds the hub unready long enough to observe.
	deadline := time.Now().Add(5 * time.Second)
	saw503 := false
	for !saw503 {
		if time.Now().After(deadline) {
			t.Fatal("never observed an unready window")
		}
		rec := get(t, srv, "/readyz")
		if rec.Code == http.StatusServiceUnavailable {
			saw503 = true
			if ra := rec.Header().Get("Retry-After"); ra == "" {
				t.Error("503 readyz carries no Retry-After header")
			}
		}
		time.Sleep(time.Millisecond)
	}
	// Liveness is unaffected: the process is fine, one home is restarting.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("GET /healthz during restart = %d, want 200", rec.Code)
	}

	for {
		if time.Now().After(deadline) {
			t.Fatal("hub never became ready again")
		}
		if rec := get(t, srv, "/readyz"); rec.Code == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := StatusOf(m, Home)
	if err != nil || st.Health != rt.HealthOK || st.Poisons < 1 || st.Restarts < 1 {
		t.Errorf("post-recovery status health=%s poisons=%d restarts=%d (err %v), want ok/>=1/>=1",
			st.Health, st.Poisons, st.Restarts, err)
	}
	// The restarted hub serves mutations again.
	if _, err := m.Submit(Home, coolingRoutine()); err != nil {
		t.Errorf("Submit after supervised restart: %v", err)
	}
}

// TestUnsupervisedPoisonIsReported: with Supervisor.Disable a poisoned home
// is not restarted, but it is still noticed. Both owners report it
// quarantined with its poison forensics, mutations answer 503 with
// Retry-After, and the hub's /readyz turns 503 too (the manager's /readyz is
// process-level and stays 200).
func TestUnsupervisedPoisonIsReported(t *testing.T) {
	off := rt.SupervisorConfig{Disable: true}
	for _, tc := range []struct {
		name                         string
		srv                          func(t *testing.T) (http.Handler, *rt.HomeRuntime)
		statusPath, submitPath, spec string
		ready                        bool // /readyz reports the home
	}{
		{
			name: "hub",
			srv: func(t *testing.T) (http.Handler, *rt.HomeRuntime) {
				m := newSupervisedHub(t, off)
				return HomeHandler(m, Home), gen(t, m)
			},
			statusPath: "/api/status", submitPath: "/api/routines",
			spec:  `{"routine_name":"r","commands":[{"device":"light","action":"ON"}]}`,
			ready: true,
		},
		{
			name: "manager",
			srv: func(t *testing.T) (http.Handler, *rt.HomeRuntime) {
				m := manager.New(manager.Config{Shards: 1, Supervisor: off, Home: manager.HomeConfig{Model: visibility.EV}})
				t.Cleanup(m.Close)
				if err := m.AddHome("h", device.Plugs(2).All()...); err != nil {
					t.Fatal(err)
				}
				home, err := m.Runtime("h")
				if err != nil {
					t.Fatal(err)
				}
				return ManagerHandler(m, 2), home
			},
			statusPath: "/homes/h/status", submitPath: "/homes/h/routines",
			spec: `{"routine_name":"r","commands":[{"device":"plug-0","action":"ON"}]}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, home := tc.srv(t)
			home.PostTimer(func() { panic("test: unsupervised fault") })

			type status struct {
				Health     rt.HomeHealth    `json:"health"`
				LastPoison *rt.PoisonRecord `json:"last_poison"`
			}
			var st status
			deadline := time.Now().Add(5 * time.Second)
			for {
				st = status{}
				rec := get(t, srv, tc.statusPath)
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("GET %s: %v", tc.statusPath, err)
				}
				if st.Health != rt.HealthOK {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("poisoned %s still reports health ok", tc.name)
				}
				time.Sleep(time.Millisecond)
			}
			if st.Health != rt.HealthQuarantined {
				t.Errorf("health = %s, want quarantined", st.Health)
			}
			if st.LastPoison == nil || !strings.Contains(st.LastPoison.Message, "unsupervised fault") {
				t.Errorf("last_poison = %+v, want the panic's forensics", st.LastPoison)
			}

			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", tc.submitPath, strings.NewReader(tc.spec)))
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Errorf("POST %s = %d (Retry-After %q), want 503 with Retry-After",
					tc.submitPath, rec.Code, rec.Header().Get("Retry-After"))
			}
			if !tc.ready {
				return
			}
			if rec := get(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Errorf("GET /readyz = %d (Retry-After %q), want 503 with Retry-After",
					rec.Code, rec.Header().Get("Retry-After"))
			}
		})
	}
}

func TestManagerHealthEndpoints(t *testing.T) {
	m := manager.New(manager.Config{Shards: 2, Home: manager.HomeConfig{Model: visibility.EV}})
	t.Cleanup(m.Close)
	if err := m.AddHome("home-1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	srv := ManagerHandler(m, 4)

	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", rec.Code)
	}
	rec := get(t, srv, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", rec.Code)
	}
	var body struct {
		Status      string `json:"status"`
		Homes       int    `json:"homes"`
		Poisons     int64  `json:"poisons"`
		Restarts    int64  `json:"restarts"`
		Quarantined int64  `json:"quarantined"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if body.Status != "ok" {
		t.Errorf("manager readyz status = %q, want ok", body.Status)
	}
}

func TestRetryAfterOnBackpressureStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		rec := httptest.NewRecorder()
		writeError(rec, status, errors.New("test: shed"))
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Errorf("status %d carries no Retry-After", status)
		}
	}
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict} {
		rec := httptest.NewRecorder()
		writeError(rec, status, errors.New("test: client error"))
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			t.Errorf("status %d carries Retry-After %q, want none", status, ra)
		}
	}
}
