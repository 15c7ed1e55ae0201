package hub

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// The session replays: one scripted client session over every route of each
// HTTP surface, sent through the frozen handlers of oracle_test.go and
// through the live ones, which must answer with the same status, the same
// Content-Type / Retry-After / Allow / Location and the same bytes.
//
// Bodies carry wall-clock stamps, so a read is compared on one system: the
// oracle handler and the live handler wrap the same manager (or hub). A
// mutation can only be applied once per system, so it is compared across
// twins: two systems built alike and driven in lock step, the oracle in
// front of one and the live handler in front of the other.

// wireStep is one request of the script.
type wireStep struct {
	method, target, body string
	// mutates marks a request that changes the system when it succeeds; it
	// is compared across the twins instead of on the live system.
	mutates bool
	// wallClock marks a mutation whose reply embeds a wall-clock stamp (PUT
	// /homes/{id} answers with the new home's status): across twins only
	// status and headers are comparable; sameAs names the read whose oracle
	// bytes, on the live system, the reply must equal.
	wallClock bool
	sameAs    string
	// volatile marks a body that changes between two reads of one system
	// (/metrics carries scrape-time gauges): status and headers only.
	volatile bool
}

// wireTwins are the three handlers a script runs against.
type wireTwins struct {
	live     http.Handler // the live handler over the live system
	liveOld  http.Handler // the oracle over the live system: reads
	twinOld  http.Handler // the oracle over the twin system: mutations
	settleFn func()       // waits until neither system has work in flight
}

func serveStep(h http.Handler, s wireStep) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(s.method, s.target, strings.NewReader(s.body)))
	return rec
}

func (tw *wireTwins) replay(t *testing.T, script []wireStep) {
	t.Helper()
	for _, s := range script {
		what := s.method + " " + s.target
		var old *httptest.ResponseRecorder
		if s.mutates {
			old = serveStep(tw.twinOld, s)
		} else {
			old = serveStep(tw.liveOld, s)
		}
		got := serveStep(tw.live, s)
		if s.mutates && tw.settleFn != nil {
			tw.settleFn()
		}
		switch {
		case s.volatile:
			old.Body.Reset()
			got.Body.Reset()
		case s.wallClock && got.Code < 300:
			old.Body = serveStep(tw.liveOld, wireStep{method: http.MethodGet, target: s.sameAs}).Body
		}
		sameResponse(t, what, old, got)
		if got.Code >= 500 && got.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: unexpected status %d", what, got.Code)
		}
	}
}

const wireSpec = `{"routine_name":"r","commands":[{"device":"plug-0","action":"ON","duration_ms":5},{"device":"plug-1","action":"OFF"}]}`
const wireAbortSpec = `{"routine_name":"must<&>","commands":[{"device":"plug-0","action":"ON"}]}`

// sinceQueries are the ?since= spellings an events route must read exactly
// as net/url does: absent, empty, garbage, repeated, percent-encoded, with
// the separators ParseQuery rejects, and at the integer's edges.
var sinceQueries = []string{
	"", "?", "?since=", "?since", "?since=0", "?since=1", "?since=3", "?since=999999",
	"?since=abc", "?since=-1", "?since=1.5", "?since=0x10", "?since=%20", "?since=+1", "?since=1+",
	"?since=1&since=2", "?since=&since=2", "?since=abc&since=2", "?x=1&since=2", "?since=2&x=1", "?&since=2&", "?&&",
	"?since=%32", "?s%69nce=2", "?since=2%", "?since=%zz&since=2", "?since=2;x=1", "?x=1;since=2", "?since=2&y=1;z",
	"?SINCE=2", "?since=2=3", "?=2", "?since==2",
	"?since=18446744073709551615", "?since=18446744073709551616", "?since=00000000000000000000002",
}

func managerScript() []wireStep {
	get := func(target string) wireStep { return wireStep{method: http.MethodGet, target: target} }
	script := []wireStep{
		// An empty fleet.
		get("/healthz"), get("/readyz"), get("/api/status"), get("/homes"), get("/homes/a/status"),
		{method: http.MethodGet, target: "/metrics", volatile: true},

		// Homes: plain, default plugs, an ID that needs escaping, a duplicate, bad requests.
		{method: http.MethodPut, target: "/homes/a?plugs=3", mutates: true, wallClock: true, sameAs: "/homes/a/status"},
		{method: http.MethodPut, target: "/homes/b", mutates: true, wallClock: true, sameAs: "/homes/b/status"},
		{method: http.MethodPut, target: "/homes/a%2Fb?plugs=2", mutates: true, wallClock: true, sameAs: "/homes/a%2Fb/status"},
		{method: http.MethodPut, target: "/homes/sp%20ace%3C?plugs=2", mutates: true, wallClock: true, sameAs: "/homes/sp%20ace%3C/status"},
		{method: http.MethodPut, target: "/homes/jam?plugs=2", mutates: true, wallClock: true, sameAs: "/homes/jam/status"},
		{method: http.MethodPut, target: "/homes/a"},
		{method: http.MethodPut, target: "/homes/c?plugs=0"},
		{method: http.MethodPut, target: "/homes/c?plugs=x"},
		{method: http.MethodPut, target: "/homes/.."},
		{method: http.MethodPut, target: "/homes/%2E%2E"},

		// Submissions: accepted, aborting, malformed, to nobody.
		{method: http.MethodPost, target: "/homes/a/routines", body: wireSpec, mutates: true},
		{method: http.MethodPost, target: "/homes/a/routines", body: wireSpec, mutates: true},
		{method: http.MethodPost, target: "/homes/a%2Fb/routines", body: wireSpec, mutates: true},
		{method: http.MethodPost, target: "/homes/a/routines", body: `{"routine_name":`},
		{method: http.MethodPost, target: "/homes/a/routines", body: ``},
		{method: http.MethodPost, target: "/homes/a/routines", body: `{"routine_name":"x","commands":[{"device":"nope<>","action":"ON"}]}`},
		{method: http.MethodPost, target: "/homes/nobody/routines", body: wireSpec},
		{method: http.MethodPost, target: "/homes/a/routines/", body: wireSpec},
		{method: http.MethodPost, target: "/homes//routines", body: wireSpec},

		// Device faults, then a routine that must abort on the failed plug.
		{method: http.MethodPost, target: "/homes/a/devices/plug-0/fail", mutates: true},
		{method: http.MethodPost, target: "/homes/a/routines", body: wireAbortSpec, mutates: true},
		{method: http.MethodPost, target: "/homes/a/devices/plug-0/restore", mutates: true},
		{method: http.MethodPost, target: "/homes/a/devices/nope/fail"},
		{method: http.MethodPost, target: "/homes/nobody/devices/plug-0/fail"},
		{method: http.MethodPost, target: "/homes/nobody/devices/plug-0/restore"},
		{method: http.MethodGet, target: "/homes/a/devices/plug-0/fail"},

		// Every read route, on homes with history, without, and unknown.
		get("/readyz"), get("/api/status"), get("/homes"),
	}
	for _, home := range []string{"a", "b", "a%2Fb", "sp%20ace%3C", "%61", "nobody", "a/b", "A"} {
		for _, tail := range []string{"/status", "/devices", "/routines", "/events", "/routines/1", "/routines/3", "/routines/4", "/routines/0"} {
			script = append(script, get("/homes/"+home+tail))
		}
	}
	// Routine IDs that are not, paths that are almost routes, other methods.
	for _, target := range []string{
		"/homes/a/routines/abc", "/homes/a/routines/-1", "/homes/a/routines/+1", "/homes/a/routines/1.0",
		"/homes/a/routines/9223372036854775807", "/homes/a/routines/9223372036854775808", "/homes/a/routines/%31",
		"/homes/a/routines/1/", "/homes/a/routines/1/x", "/homes/a/routines/", "/homes/a/routines//", "/homes/a/routines/.", "/homes/a/routines/..",
		"/homes/a/status/", "/homes/a/events/", "/homes/a/status/x", "/homes/a/", "/homes/a", "/homes/", "/homes",
		"/homes//status", "/homes/a//status", "//homes/a/status", "/homes/./status", "/homes/../status", "/homes/a/./status", "/homes/a/../b/status",
		"/homes/a/%73tatus", "/homes/a/statu%73", "/homes/a%2Fstatus", "/homes/a%2Froutines%2F1", "/homes/a/routines%2F1", "/homes/a/STATUS", "/Homes/a/status", "/homes/a/status%2F",
		"/nope", "/", "/api", "/api/status/", "/healthz/",
	} {
		script = append(script, get(target))
	}
	for _, method := range []string{http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodOptions, "get"} {
		for _, target := range []string{"/homes/a/status", "/homes/a/routines", "/homes/a/routines/1", "/homes/a/events?since=1", "/homes", "/api/status", "/healthz"} {
			if method == http.MethodPost && target == "/homes/a/routines" {
				continue // that one is a submission
			}
			script = append(script, wireStep{method: method, target: target})
		}
	}
	for _, q := range sinceQueries {
		script = append(script, get("/homes/a/events"+q), get("/homes/b/events"+q))
	}
	return script
}

func wireManager(t *testing.T) *manager.Manager {
	m := manager.New(manager.Config{Shards: 2, Clock: manager.ClockVirtual, EventLog: 64, QueueDepth: 2,
		Home: manager.HomeConfig{Model: visibility.EV}})
	t.Cleanup(m.Close)
	return m
}

func TestManagerHandlerWireContract(t *testing.T) {
	liveM, twinM := wireManager(t), wireManager(t)
	tw := &wireTwins{
		live:    ManagerHandler(liveM, 4),
		liveOld: oracleManagerHandler(liveM, 4),
		twinOld: oracleManagerHandler(twinM, 4),
	}
	tw.replay(t, managerScript())

	// The script must have reached what it is about: three results (one
	// aborted) and a non-trivial events page on home a.
	if res, err := liveM.Results("a"); err != nil || len(res) != 3 || res[2].Status != visibility.StatusAborted {
		t.Fatalf("home a after the script: %d results, err %v", len(res), err)
	}
	if ev, _, _ := liveM.Events("a", 0); len(ev) < 6 {
		t.Fatalf("home a logged %d events, want a real page", len(ev))
	}

	// 429: park the home's loop and fill its mailbox; both handlers shed.
	jam, err := liveM.Runtime("jam")
	if err != nil {
		t.Fatal(err)
	}
	resume, wg := wedge(t, jam, 2, func() error {
		_, err := liveM.Submit("jam", routine.New("filler", routine.Command{Device: "plug-0", Target: device.On}))
		return err
	})
	tw.replay(t, []wireStep{
		{method: http.MethodPost, target: "/homes/jam/routines", body: wireSpec},
		{method: http.MethodPost, target: "/homes/jam/devices/plug-0/fail"},
		{method: http.MethodGet, target: "/homes/jam/status"},
		{method: http.MethodGet, target: "/homes/jam/events?since=0"},
	})
	resume()
	wg.Wait()

	// 503: a closed manager refuses mutations (with Retry-After) and still
	// answers reads from the quiesced snapshots.
	liveM.Close()
	tw.replay(t, []wireStep{
		{method: http.MethodPost, target: "/homes/a/routines", body: wireSpec},
		{method: http.MethodPost, target: "/homes/a/devices/plug-0/fail"},
		{method: http.MethodPut, target: "/homes/late"},
		{method: http.MethodGet, target: "/homes/a/status"},
		{method: http.MethodGet, target: "/homes/a/routines/2"},
		{method: http.MethodGet, target: "/homes/a/events?since=2"},
		{method: http.MethodGet, target: "/readyz"},
	})
}

func hubScript() []wireStep {
	get := func(target string) wireStep { return wireStep{method: http.MethodGet, target: target} }
	coolingSpec := `{"routine_name":"cooling<1>","commands":[{"device":"window","action":"CLOSED"},{"device":"ac","action":"ON","duration_ms":3}]}`
	script := []wireStep{
		get("/healthz"), get("/readyz"), get("/api/status"), get("/api/devices"), get("/api/routines"),
		get("/api/routines/1"), get("/api/bank"), get("/api/triggers"), get("/api/events"), get("/api/events?since=0"),
		{method: http.MethodGet, target: "/metrics", volatile: true},

		{method: http.MethodPost, target: "/api/routines", body: coolingSpec, mutates: true},
		{method: http.MethodPost, target: "/api/routines", body: coolingSpec, mutates: true},
		{method: http.MethodPost, target: "/api/routines", body: `{"routine_name":`},
		{method: http.MethodPost, target: "/api/routines", body: `{"routine_name":"x","commands":[{"device":"nope","action":"ON"}]}`},
		{method: http.MethodPost, target: "/api/routines/", body: coolingSpec},
		{method: http.MethodPost, target: "/api/bank", body: coolingSpec, mutates: true},
		{method: http.MethodPost, target: "/api/bank", body: `[]`},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/trigger", mutates: true},
		{method: http.MethodPost, target: "/api/bank/nope/trigger"},
		// Two triggers armed at once: the listing comes out in handle order.
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule?after=1h", mutates: true},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule?after=3h", mutates: true},
		get("/api/triggers"),
		{method: http.MethodDelete, target: "/api/triggers/1", mutates: true},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule?every=2h", mutates: true},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule"},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule?after=soon"},
		{method: http.MethodPost, target: "/api/bank/nope/schedule?after=1h"},
		get("/api/triggers"),
		{method: http.MethodDelete, target: "/api/triggers/1"},
		{method: http.MethodDelete, target: "/api/triggers/x"},

		get("/readyz"), get("/api/status"), get("/api/devices"), get("/api/routines"), get("/api/bank"), get("/api/triggers"),
	}
	for _, target := range []string{
		"/api/routines/1", "/api/routines/2", "/api/routines/3", "/api/routines/4", "/api/routines/0", "/api/routines/-1",
		"/api/routines/abc", "/api/routines/%31", "/api/routines%2F1", "/api%2Fstatus", "/api/routines/1/", "/api/routines/1/x", "/api/routines/", "/api/routines//1",
		"/api/routines/.", "/api/routines/..", "/api/routines/9223372036854775808",
		"/api/status/", "/api/events/", "/api//status", "/api/./status", "/api/%73tatus", "/api/STATUS", "/api", "/api/", "/nope", "/",
	} {
		script = append(script, get(target))
	}
	for _, method := range []string{http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodOptions} {
		for _, target := range []string{"/api/status", "/api/routines/1", "/api/events?since=1", "/api/events", "/api/devices", "/api/bank/x/trigger"} {
			if method == http.MethodPost && strings.HasSuffix(target, "/trigger") {
				continue
			}
			script = append(script, wireStep{method: method, target: target})
		}
	}
	script = append(script, wireStep{method: http.MethodPut, target: "/api/routines"}, wireStep{method: http.MethodDelete, target: "/api/routines"})
	for _, q := range sinceQueries {
		script = append(script, get("/api/events"+q))
	}
	return script
}

func TestHubHandlerWireContract(t *testing.T) {
	liveH, _ := newTestHub(t)
	twinH, _ := newTestHub(t)
	tw := &wireTwins{
		live:    HomeHandler(liveH, Home),
		liveOld: oracleHubHandler(liveH),
		twinOld: oracleHubHandler(twinH),
		// The hub runs on the wall clock: let a submission finish on both
		// twins before the next request reads its result.
		settleFn: func() { waitIdle(t, liveH); waitIdle(t, twinH) },
	}
	tw.replay(t, hubScript())
	if res, err := liveH.Results(Home); err != nil || len(res) != 3 {
		t.Fatalf("hub ran %d routines through the script (err %v), want 3", len(res), err)
	}

	// 503: a closed hub refuses mutations with Retry-After, still reads.
	liveH.Close()
	tw.replay(t, []wireStep{
		{method: http.MethodPost, target: "/api/routines", body: `{"routine_name":"late","commands":[{"device":"ac","action":"ON"}]}`},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/trigger"},
		{method: http.MethodGet, target: "/api/routines/1"},
		{method: http.MethodGet, target: "/api/events?since=1"},
		{method: http.MethodGet, target: "/api/status"},
		{method: http.MethodPost, target: "/api/bank", body: `{"routine_name":"late","commands":[{"device":"ac","action":"ON"}]}`},
		{method: http.MethodPost, target: "/api/bank/cooling%3C1%3E/schedule?after=1h"},
		{method: http.MethodDelete, target: "/api/triggers/2"},
	})
}

// TestQueryValueMatchesNetURL holds the hand query reader to url.Values.Get
// on every spelling above, for a key that is there and one that is not.
func TestQueryValueMatchesNetURL(t *testing.T) {
	for _, q := range sinceQueries {
		req := httptest.NewRequest(http.MethodGet, "/homes/a/events"+q, nil)
		for _, key := range []string{"since", "x", "", "nope"} {
			if got, want := queryValue(req.URL, key), req.URL.Query().Get(key); got != want {
				t.Errorf("queryValue(%q, %q) = %q, net/url says %q", q, key, got, want)
			}
		}
	}
}
