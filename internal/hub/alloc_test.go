package hub

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

// discardWriter is a ResponseWriter that keeps nothing, so what
// AllocsPerRun counts is the handler's own.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// The allocation budget of one hot GET through ManagerHandler, request
// object and writer reused: nothing. Routing is string slicing, the status
// and result views live on the handler's stack, an events page is encoded
// off the snapshot's own chunks, the body buffer is pooled and Content-Type
// is a shared slice. A reply built as map[string]any, a url.Values, a
// PathValue or a boxed view on one of these routes shows up here as 1+.
const (
	statusRouteAllocs = 0
	resultRouteAllocs = 0
	eventsRouteAllocs = 0
)

// TestHotReadRoutesDoNotAllocate is the read path's counterpart of
// TestMeteredSubmitDoesNotAllocate, on both shapes: /homes/{id} through
// ManagerHandler and the fixed home's /api alias through HomeHandler (whose
// /api/status, /api/devices and unpaged /api/events are reflective views,
// not hot routes).
func TestHotReadRoutesDoNotAllocate(t *testing.T) {
	// home-0 and a home named Home, as the single hub names its one, with 8
	// routines run in each.
	m := manager.New(manager.Config{Shards: 1, Clock: manager.ClockVirtual, EventLog: 256,
		Home: manager.HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHome(Home, device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for _, id := range []manager.HomeID{"home-0", Home} {
		for i := 0; i < 8; i++ {
			if _, err := m.SubmitSpec(id, []byte(wireSpec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	h, alias := ManagerHandler(m, 3), HomeHandler(m, Home)

	for _, tc := range []struct {
		name        string
		h           http.Handler
		path, query string
		budget      float64
		minBody     int
	}{
		{"status", h, "/homes/home-0/status", "", statusRouteAllocs, 150},
		{"result", h, "/homes/home-0/routines/5", "", resultRouteAllocs, 150},
		{"events page", h, "/homes/home-0/events", "since=9", eventsRouteAllocs, 1500},
		{"events tip", h, "/homes/home-0/events", "since=999", eventsRouteAllocs, 20},
		{"alias result", alias, "/api/routines/5", "", resultRouteAllocs, 150},
		{"alias events page", alias, "/api/events", "since=9", eventsRouteAllocs, 1500},
	} {
		w := &discardWriter{hdr: http.Header{}}
		u := &url.URL{Path: tc.path, RawQuery: tc.query}
		req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}, Host: "test",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Body: http.NoBody}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.hdr)
			w.status, w.n = 0, 0
			tc.h.ServeHTTP(w, req)
		})
		if w.status != http.StatusOK || w.n < tc.minBody {
			t.Errorf("%s: status %d with %d body bytes, want 200 and at least %d", tc.name, w.status, w.n, tc.minBody)
		}
		t.Logf("%s, GET %s: %.1f allocs per request", tc.name, tc.path, allocs)
		if raceEnabled {
			continue // the race detector makes sync.Pool drop buffers at random
		}
		if allocs > tc.budget {
			t.Errorf("%s: %.1f allocs per request, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// submitRouteAllocs is the allocation budget of one POST
// /homes/{id}/routines through ManagerHandler on a virtual-clock home,
// request object and writer reused, as measured: 3 for the spec decode
// (routine, commands, one block of text; the body buffer is pooled) and 4
// for the home to admit and run it — the routine's cached device set (the
// parsed routine is handed over, not cloned), its EV run (Result, device
// slots and completion in one object), the published Snapshot (its
// StateExport inside) and the event log's spine copy. A clone creeping back
// costs 2 more, an io.ReadAll 2, a reflective decode about 23 (the row read
// 38 with the last two).
const submitRouteAllocs = 7

// rewindBody is a request body a test can replay without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestSubmitRouteAllocs holds POST /homes/{id}/routines and the fixed
// home's POST /api/routines to submitRouteAllocs.
func TestSubmitRouteAllocs(t *testing.T) {
	m := manager.New(manager.Config{Shards: 1, Clock: manager.ClockVirtual, EventLog: 256,
		Home: manager.HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHome(Home, device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"routine_name":"bench-00042","user":"user-03","commands":[` +
		`{"device":"plug-2","action":"ON","duration_ms":180000,"priority":"must"},` +
		`{"device":"plug-0","action":"OFF","duration_ms":60000,"priority":"must"},` +
		`{"device":"plug-1","action":"ON","duration_ms":300000,"priority":"must"}]}`)
	for _, tc := range []struct {
		h    http.Handler
		path string
	}{
		{ManagerHandler(m, 3), "/homes/home-0/routines"},
		{HomeHandler(m, Home), "/api/routines"},
	} {
		body := &rewindBody{}
		w := &discardWriter{hdr: http.Header{}}
		req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: tc.path},
			Header: http.Header{}, Host: "test", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body: body, ContentLength: int64(len(spec))}
		allocs := testing.AllocsPerRun(500, func() {
			clear(w.hdr)
			w.status, w.n = 0, 0
			body.Reset(spec)
			tc.h.ServeHTTP(w, req)
		})
		if w.status != http.StatusAccepted {
			t.Fatalf("POST %s: status %d, want 202", tc.path, w.status)
		}
		t.Logf("POST %s: %.1f allocs per request", tc.path, allocs)
		if raceEnabled {
			continue // the race detector makes sync.Pool drop buffers at random
		}
		if allocs > submitRouteAllocs {
			t.Errorf("POST %s: %.1f allocs per request, budget %d", tc.path, allocs, submitRouteAllocs)
		}
	}
}
