package hub

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safehome/internal/manager"
	"safehome/internal/visibility"
)

// TestPostBodyLimits drives every POST route that reads a routine spec
// through both of readBody's paths: a declared length is read up to that
// length and no further, and a body over maxBody is answered 400 whether
// its length is declared or it arrives chunked.
func TestPostBodyLimits(t *testing.T) {
	m := manager.New(manager.Config{Shards: 1, Clock: manager.ClockVirtual,
		Home: manager.HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 1, 3); err != nil {
		t.Fatal(err)
	}
	h, _ := newTestHub(t)
	hubSpec := `{"routine_name":"cooling","commands":[{"device":"window","action":"CLOSED"},{"device":"ac","action":"ON"}]}`

	for _, route := range []struct {
		name    string
		handler http.Handler
		path    string
		spec    string
		ok      int
	}{
		{"manager submit", ManagerHandler(m, 3), "/homes/home-0/routines", wireSpec, http.StatusAccepted},
		{"hub submit", h.Handler(), "/api/routines", hubSpec, http.StatusAccepted},
		{"hub store", h.Handler(), "/api/bank", hubSpec, http.StatusCreated},
	} {
		post := func(body io.Reader, length int64) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, route.path, body)
			req.ContentLength = length
			rec := httptest.NewRecorder()
			route.handler.ServeHTTP(rec, req)
			return rec
		}
		huge := strings.Repeat(" ", maxBody) + route.spec // valid JSON, one body too long

		// The declared length bounds the read: trailing bytes are never seen.
		if rec := post(strings.NewReader(route.spec+"}} trailing bytes"), int64(len(route.spec))); rec.Code != route.ok {
			t.Errorf("%s: body longer than its Content-Length: %d %s, want %d", route.name, rec.Code, rec.Body, route.ok)
		}
		// A body that ends before its declared length is a bad request.
		if rec := post(strings.NewReader(route.spec), int64(len(route.spec)+10)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: body shorter than its Content-Length: %d, want 400", route.name, rec.Code)
		}
		for _, tc := range []struct {
			how    string
			length int64
		}{
			{"declared length", int64(len(huge))},
			{"chunked", -1},
		} {
			rec := post(strings.NewReader(huge), tc.length)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
				t.Errorf("%s, %s: body over 1 MiB: %d %s, want 400 request body too large", route.name, tc.how, rec.Code, rec.Body)
			}
		}
		// Within the limit both paths accept.
		if rec := post(strings.NewReader(route.spec), -1); rec.Code != route.ok {
			t.Errorf("%s: chunked body: %d %s, want %d", route.name, rec.Code, rec.Body, route.ok)
		}
		atLimit := strings.Repeat(" ", maxBody-len(route.spec)) + route.spec
		if rec := post(strings.NewReader(atLimit), int64(len(atLimit))); rec.Code != route.ok {
			t.Errorf("%s: body of exactly 1 MiB: %d, want %d", route.name, rec.Code, route.ok)
		}
	}
}
