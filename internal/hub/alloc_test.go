package hub

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"

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
// TestMeteredSubmitDoesNotAllocate.
func TestHotReadRoutesDoNotAllocate(t *testing.T) {
	m := manager.New(manager.Config{Shards: 1, Clock: manager.ClockVirtual, EventLog: 256,
		Home: manager.HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 1, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := m.SubmitSpec("home-0", []byte(wireSpec)); err != nil {
			t.Fatal(err)
		}
	}
	h := ManagerHandler(m, 3)

	for _, tc := range []struct {
		name, path, query string
		budget            float64
		minBody           int
	}{
		{"status", "/homes/home-0/status", "", statusRouteAllocs, 150},
		{"result", "/homes/home-0/routines/5", "", resultRouteAllocs, 150},
		{"events page", "/homes/home-0/events", "since=9", eventsRouteAllocs, 1500},
		{"events tip", "/homes/home-0/events", "since=999", eventsRouteAllocs, 20},
	} {
		w := &discardWriter{hdr: http.Header{}}
		u := &url.URL{Path: tc.path, RawQuery: tc.query}
		req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}, Host: "test",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Body: http.NoBody}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.hdr)
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
		})
		if w.status != http.StatusOK || w.n < tc.minBody {
			t.Errorf("%s: status %d with %d body bytes, want 200 and at least %d", tc.name, w.status, w.n, tc.minBody)
		}
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

func TestSubmitRouteAllocs(t *testing.T) {
	m := manager.New(manager.Config{Shards: 1, Clock: manager.ClockVirtual, EventLog: 256,
		Home: manager.HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 1, 3); err != nil {
		t.Fatal(err)
	}
	h := ManagerHandler(m, 3)
	spec := []byte(`{"routine_name":"bench-00042","user":"user-03","commands":[` +
		`{"device":"plug-2","action":"ON","duration_ms":180000,"priority":"must"},` +
		`{"device":"plug-0","action":"OFF","duration_ms":60000,"priority":"must"},` +
		`{"device":"plug-1","action":"ON","duration_ms":300000,"priority":"must"}]}`)
	body := &rewindBody{}
	w := &discardWriter{hdr: http.Header{}}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/homes/home-0/routines"},
		Header: http.Header{}, Host: "test", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: body, ContentLength: int64(len(spec))}
	allocs := testing.AllocsPerRun(500, func() {
		clear(w.hdr)
		w.status, w.n = 0, 0
		body.Reset(spec)
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", w.status)
	}
	t.Logf("POST /homes/{id}/routines: %.1f allocs per request", allocs)
	if raceEnabled {
		return // the race detector makes sync.Pool drop buffers at random
	}
	if allocs > submitRouteAllocs {
		t.Errorf("POST /homes/{id}/routines: %.1f allocs per request, budget %d", allocs, submitRouteAllocs)
	}
}
