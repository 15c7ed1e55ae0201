package hub

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// Handler returns the hub's HTTP API:
//
//	GET  /healthz                 process liveness (always 200)
//	GET  /readyz                  readiness: 503 + Retry-After while the
//	                              hub is restarting or quarantined
//	GET  /metrics                 Prometheus text exposition (see
//	                              ARCHITECTURE.md "Observability")
//	GET  /api/status              hub summary
//	GET  /api/devices             device states and liveness
//	GET  /api/routines            all routine results
//	GET  /api/routines/{id}       one routine result
//	POST /api/routines            submit a routine (Fig 10-style JSON spec)
//	GET  /api/bank                stored routine names
//	POST /api/bank                store a routine definition
//	POST /api/bank/{name}/trigger dispatch a stored routine
//	GET  /api/events              recent controller events
//	GET  /api/events?since=N      only events with sequence >= N, plus the
//	                              next cursor — pollers fetch only the tail
//
// The mux below is the routing table for every route. The four a poller or
// a submitter hits — status, routines/{id}, events, POST routines — are
// recognised by hubAPI.ServeHTTP before it, by plain string comparison, and
// land in the same handler functions.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		health := h.Health()
		if h.Serving() {
			writeJSON(w, http.StatusOK, map[string]string{"status": string(health)})
			return
		}
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("hub %s", health))
	})
	mux.Handle("GET /metrics", h.Telemetry().Handler())
	mux.HandleFunc("GET /api/status", h.handleStatus)
	mux.HandleFunc("GET /api/devices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, h.Devices())
	})
	mux.HandleFunc("GET /api/routines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, resultsJSON(h.Results()))
	})
	mux.HandleFunc("GET /api/routines/{id}", func(w http.ResponseWriter, r *http.Request) {
		h.handleGetRoutine(w, r.PathValue("id"))
	})
	mux.HandleFunc("POST /api/routines", h.handleSubmit)
	mux.HandleFunc("GET /api/bank", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, h.StoredRoutines())
	})
	mux.HandleFunc("POST /api/bank", h.handleStore)
	mux.HandleFunc("POST /api/bank/{name}/trigger", h.handleTrigger)
	mux.HandleFunc("POST /api/bank/{name}/schedule", h.handleSchedule)
	mux.HandleFunc("GET /api/triggers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, h.Triggers())
	})
	mux.HandleFunc("DELETE /api/triggers/{handle}", h.handleCancelTrigger)
	mux.HandleFunc("GET /api/events", h.handleEvents)
	return &hubAPI{h: h, mux: mux}
}

// hubAPI is the single-home handler: hot routes by hand, the rest (and every
// request the hand router does not recognise to the letter: other methods,
// trailing slashes, percent-encoded or unclean paths) through the mux, which
// owns 404, 405 + Allow and redirects.
type hubAPI struct {
	h   *Hub
	mux *http.ServeMux
}

func (a *hubAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p := r.URL.Path; r.URL.RawPath == "" { // a percent-encoded path is the mux's to decode
		switch r.Method {
		case http.MethodGet:
			switch p {
			case "/api/status":
				a.h.handleStatus(w, r)
				return
			case "/api/events":
				a.h.handleEvents(w, r)
				return
			}
			if id, ok := strings.CutPrefix(p, "/api/routines/"); ok && plainSegment(id) {
				a.h.handleGetRoutine(w, id)
				return
			}
		case http.MethodPost:
			if p == "/api/routines" {
				a.h.handleSubmit(w, r)
				return
			}
		}
	}
	a.mux.ServeHTTP(w, r)
}

// plainSegment reports whether s is a path segment the mux would hand to a
// {wildcard} unchanged: one non-empty segment that path cleaning leaves
// alone. (Percent-encoded paths never get this far: see RawPath above.)
func plainSegment(s string) bool {
	return s != "" && s != "." && s != ".." && !strings.Contains(s, "/")
}

func (h *Hub) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.Status())
}

func (h *Hub) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, ok, err := sinceCursor(r.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		writeJSON(w, http.StatusOK, eventsJSON(h.Events()))
		return
	}
	buf := newBody()
	buf.openEvents()
	next := h.slot.Load().RangeEventsSince(since, buf.pageEvent)
	buf.closeEvents(next)
	buf.send(w, http.StatusOK)
}

// sinceCursor parses the optional ?since= event cursor. An empty or missing
// value reports absent (full fetch) rather than an error, so templated URLs
// with an unset cursor variable behave the same on every events route.
func sinceCursor(u *url.URL) (since uint64, ok bool, err error) {
	q := queryValue(u, "since")
	if q == "" {
		return 0, false, nil
	}
	since, err = strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad since cursor: %w", err)
	}
	return since, true, nil
}

// queryValue is u.Query().Get(key) without building the url.Values map: the
// first value of key in the raw query. A query with anything net/url would
// decode or reject (%, +, ;) is left to net/url.
func queryValue(u *url.URL, key string) string {
	raw := u.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		return u.Query().Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// handleSchedule creates an automation trigger for a stored routine. The
// delay (one-shot) or interval (recurring) is given as a Go duration string
// in the `after` or `every` query parameter.
func (h *Hub) handleSchedule(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var (
		handle TriggerHandle
		err    error
	)
	switch {
	case r.URL.Query().Get("every") != "":
		var interval time.Duration
		interval, err = time.ParseDuration(r.URL.Query().Get("every"))
		if err == nil {
			handle, err = h.ScheduleEvery(name, interval)
		}
	case r.URL.Query().Get("after") != "":
		var delay time.Duration
		delay, err = time.ParseDuration(r.URL.Query().Get("after"))
		if err == nil {
			handle, err = h.ScheduleAfter(name, delay)
		}
	default:
		err = fmt.Errorf("either ?after=<duration> or ?every=<duration> is required")
	}
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"handle": handle})
}

func (h *Hub) handleCancelTrigger(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("handle"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trigger handle: %w", err))
		return
	}
	if err := h.CancelTrigger(TriggerHandle(id)); err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cancelled": r.PathValue("handle")})
}

// maxBody caps a POST body; a longer one is answered 400.
const maxBody = 1 << 20

// readBody reads a POST body into a buffer from respPool; the caller
// releases it once the bytes are parsed (ParseSpec keeps none of them). A
// body of declared length up to maxBody is read in one piece — net/http
// already stops it at that length. A chunked or oversized body goes
// through http.MaxBytesReader, which answers an overlong one with an error.
// A failed read is answered 400 here and returns nil.
func readBody(w http.ResponseWriter, r *http.Request) *respBuf {
	buf := newBody()
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBody {
		buf.B = slices.Grow(buf.B, int(n))[:n]
		_, err = io.ReadFull(r.Body, buf.B)
	} else {
		var b []byte
		b, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		buf.B = append(buf.B, b...)
	}
	if err != nil {
		buf.release()
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return nil
	}
	return buf
}

func (h *Hub) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := readBody(w, r)
	if body == nil {
		return
	}
	id, err := h.SubmitSpec(body.B)
	body.release()
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeID(w, http.StatusAccepted, id)
}

func (h *Hub) handleGetRoutine(w http.ResponseWriter, idText string) {
	id, err := strconv.ParseInt(idText, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad routine id: %w", err))
		return
	}
	res, ok := h.slot.Load().ResultRef(routine.ID(id))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no routine %d", id))
		return
	}
	v := resultJSON(res)
	writeResult(w, http.StatusOK, &v)
}

func (h *Hub) handleStore(w http.ResponseWriter, r *http.Request) {
	body := readBody(w, r)
	if body == nil {
		return
	}
	def, err := routine.ParseSpec(body.B)
	body.release()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.StoreRoutine(def); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"stored": def.Name})
}

func (h *Hub) handleTrigger(w http.ResponseWriter, r *http.Request) {
	id, err := h.Trigger(r.PathValue("name"))
	if err != nil {
		writeOpError(w, http.StatusNotFound, err)
		return
	}
	writeID(w, http.StatusAccepted, id)
}

// writeOpError maps hub and manager errors onto HTTP statuses. An unknown
// home is 404 and a duplicate one 409. A full mailbox is 429 Too Many
// Requests: the home is overloaded and the client should back off and retry.
// A closed, poisoned, restarting or quarantined home is 503 Service
// Unavailable with a Retry-After hint — the supervisor is (or gave up)
// bringing it back, and other homes keep serving. Anything else keeps the
// handler's fallback status.
func writeOpError(w http.ResponseWriter, fallback int, err error) {
	switch {
	case errors.Is(err, manager.ErrUnknownHome):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, manager.ErrDuplicateHome):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed),
		errors.Is(err, ErrPoisoned),
		errors.Is(err, manager.ErrRestarting),
		errors.Is(err, manager.ErrQuarantined):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, fallback, err)
	}
}

// --- multi-tenant API ---------------------------------------------------------

// ManagerHandler returns the multi-tenant HTTP API served when the hub runs
// in manager mode (`safehome-hub -homes N -shards S`). Every home-scoped
// route is dispatched through the manager, which serializes it on the home's
// shard:
//
//	GET  /healthz                         process liveness (always 200)
//	GET  /readyz                          readiness + supervision counters
//	GET  /metrics                         Prometheus text exposition
//	GET  /api/status                      manager summary (shards, totals)
//	GET  /homes                           every home's summary (incl. health)
//	PUT  /homes/{id}?plugs=N              create a home with N plug devices
//	GET  /homes/{id}/status               one home's summary
//	GET  /homes/{id}/devices              ground-truth device states
//	GET  /homes/{id}/routines             the home's routine results
//	POST /homes/{id}/routines             submit a routine (Fig 10-style JSON)
//	GET  /homes/{id}/routines/{rid}       one routine result
//	GET  /homes/{id}/events?since=N       the home's event tail + next cursor
//	                                      (empty unless the manager was built
//	                                      with a per-home event log); a poll
//	                                      at the cursor of a hibernated home
//	                                      is answered without waking it
//	POST /homes/{id}/devices/{dev}/fail   inject a fail-stop device failure
//	POST /homes/{id}/devices/{dev}/restore inject the matching restart
//
// defaultPlugs is the fleet size given to homes created without an explicit
// ?plugs= (values < 1 fall back to 5); the hub passes its -plugs flag so
// API-created homes match the startup homes.
//
// The mux built here is the routing table for every route above. The ones a
// poller or a submitter hits — status, routines, routines/{rid}, events —
// are recognised by managerAPI.ServeHTTP before it, by splitting the path by
// hand, and land in the same handler functions. The wire format is
// encoding/json's throughout (see encode.go).
func ManagerHandler(m *manager.Manager, defaultPlugs int) http.Handler {
	if defaultPlugs < 1 {
		defaultPlugs = 5
	}
	a := &managerAPI{m: m, mux: http.NewServeMux()}
	mux := a.mux
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The manager serves as long as the process does; per-home readiness
		// (restarting/quarantined homes answer 503 on their scoped routes) is
		// visible in /homes and the supervision counters here.
		st := m.Status()
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ok",
			"homes":       st.Homes,
			"poisons":     st.Poisons,
			"restarts":    st.Restarts,
			"quarantined": st.Quarantined,
		})
	})
	mux.Handle("GET /metrics", m.Telemetry().Handler())
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Status())
	})
	mux.HandleFunc("GET /homes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Homes())
	})
	mux.HandleFunc("PUT /homes/{id}", func(w http.ResponseWriter, r *http.Request) {
		plugs := defaultPlugs
		if q := r.URL.Query().Get("plugs"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad plugs count %q", q))
				return
			}
			plugs = n
		}
		id := manager.HomeID(r.PathValue("id"))
		if err := m.AddHome(id, plugDevices(plugs)...); err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		a.status(w, http.StatusCreated, id)
	})
	mux.HandleFunc("GET /homes/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		a.status(w, http.StatusOK, manager.HomeID(r.PathValue("id")))
	})
	mux.HandleFunc("GET /homes/{id}/devices", func(w http.ResponseWriter, r *http.Request) {
		states, err := m.DeviceStates(manager.HomeID(r.PathValue("id")))
		if err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, states)
	})
	mux.HandleFunc("GET /homes/{id}/routines", func(w http.ResponseWriter, r *http.Request) {
		a.results(w, manager.HomeID(r.PathValue("id")))
	})
	mux.HandleFunc("POST /homes/{id}/routines", func(w http.ResponseWriter, r *http.Request) {
		a.submit(w, r, manager.HomeID(r.PathValue("id")))
	})
	mux.HandleFunc("GET /homes/{id}/routines/{rid}", func(w http.ResponseWriter, r *http.Request) {
		a.result(w, manager.HomeID(r.PathValue("id")), r.PathValue("rid"))
	})
	mux.HandleFunc("GET /homes/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		a.events(w, r, manager.HomeID(r.PathValue("id")))
	})
	mux.HandleFunc("POST /homes/{id}/devices/{dev}/fail", func(w http.ResponseWriter, r *http.Request) {
		if err := m.FailDevice(manager.HomeID(r.PathValue("id")), device.ID(r.PathValue("dev"))); err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"failed": r.PathValue("dev")})
	})
	mux.HandleFunc("POST /homes/{id}/devices/{dev}/restore", func(w http.ResponseWriter, r *http.Request) {
		if err := m.RestoreDevice(manager.HomeID(r.PathValue("id")), device.ID(r.PathValue("dev"))); err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"restored": r.PathValue("dev")})
	})
	return a
}

// managerAPI is the multi-tenant handler: hot routes by hand, the rest (and
// every request the hand router does not recognise to the letter: other
// methods, trailing slashes, percent-encoded or unclean paths) through the
// mux, which owns 404, 405 + Allow and redirects.
type managerAPI struct {
	m   *manager.Manager
	mux *http.ServeMux
}

func (a *managerAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, tail, ok := cutHomePath(r.URL); ok {
		switch r.Method {
		case http.MethodGet:
			switch tail {
			case "status":
				a.status(w, http.StatusOK, id)
				return
			case "events":
				a.events(w, r, id)
				return
			case "routines":
				a.results(w, id)
				return
			}
			if rid, ok := strings.CutPrefix(tail, "routines/"); ok && plainSegment(rid) {
				a.result(w, id, rid)
				return
			}
		case http.MethodPost:
			if tail == "routines" {
				a.submit(w, r, id)
				return
			}
		}
	}
	a.mux.ServeHTTP(w, r)
}

// cutHomePath splits /homes/{id}/{tail...}. It declines (ok false) any path
// the mux would not pass through verbatim: a percent-encoded one (RawPath
// set) or one whose id segment path cleaning would rewrite.
func cutHomePath(u *url.URL) (id manager.HomeID, tail string, ok bool) {
	rest, ok := strings.CutPrefix(u.Path, "/homes/")
	if !ok || u.RawPath != "" {
		return "", "", false
	}
	seg, tail, ok := strings.Cut(rest, "/")
	return manager.HomeID(seg), tail, ok && plainSegment(seg)
}

func (a *managerAPI) status(w http.ResponseWriter, status int, id manager.HomeID) {
	st, err := a.m.HomeStatus(id)
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeHomeStatus(w, status, &st)
}

func (a *managerAPI) results(w http.ResponseWriter, id manager.HomeID) {
	results, err := a.m.Results(id)
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resultsJSON(results))
}

func (a *managerAPI) submit(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
	body := readBody(w, r)
	if body == nil {
		return
	}
	rid, err := a.m.SubmitSpec(id, body.B)
	body.release()
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeID(w, http.StatusAccepted, rid)
}

func (a *managerAPI) result(w http.ResponseWriter, id manager.HomeID, ridText string) {
	rid, err := strconv.ParseInt(ridText, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad routine id: %w", err))
		return
	}
	res, ok, err := a.m.ResultRef(id, routine.ID(rid))
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no routine %d", rid))
		return
	}
	v := resultJSON(res)
	writeResult(w, http.StatusOK, &v)
}

// events encodes the page straight off the home's snapshot: no event is
// copied out of its chunk.
func (a *managerAPI) events(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
	since, _, err := sinceCursor(r.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buf := newBody()
	buf.openEvents()
	next, err := a.m.RangeEvents(id, since, buf.pageEvent)
	if err != nil {
		buf.release()
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	buf.closeEvents(next)
	buf.send(w, http.StatusOK)
}

func plugDevices(n int) []device.Info { return device.Plugs(n).All() }

// --- JSON views ---------------------------------------------------------------

type resultView struct {
	ID          routine.ID `json:"id"`
	Name        string     `json:"name"`
	Status      string     `json:"status"`
	Submitted   time.Time  `json:"submitted"`
	Started     time.Time  `json:"started,omitempty"`
	Finished    time.Time  `json:"finished,omitempty"`
	LatencyMS   int64      `json:"latency_ms,omitempty"`
	Executed    int        `json:"executed"`
	Skipped     int        `json:"skipped,omitempty"`
	BestEffort  int        `json:"best_effort_failures,omitempty"`
	RolledBack  int        `json:"rolled_back,omitempty"`
	AbortReason string     `json:"abort_reason,omitempty"`
}

func resultJSON(res *visibility.Result) resultView {
	v := resultView{
		ID:          res.ID,
		Status:      res.Status.String(),
		Submitted:   res.Submitted,
		Started:     res.Started,
		Finished:    res.Finished,
		Executed:    res.Executed,
		Skipped:     res.Skipped,
		BestEffort:  res.BestEffortFailures,
		RolledBack:  res.RolledBack,
		AbortReason: res.AbortReason,
	}
	if res.Routine != nil {
		v.Name = res.Routine.Name
	}
	if res.Status == visibility.StatusCommitted {
		v.LatencyMS = res.Latency().Milliseconds()
	}
	return v
}

func resultsJSON(results []visibility.Result) []resultView {
	out := make([]resultView, 0, len(results))
	for i := range results {
		out = append(out, resultJSON(&results[i]))
	}
	return out
}

// eventView is one element of an events listing. A cursor-paged response —
// {"events":[…],"next":N}; poll again with ?since=N to fetch only what
// happened after it — stamps each with its sequence number.
type eventView struct {
	Seq     uint64    `json:"seq,omitempty"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Routine int64     `json:"routine,omitempty"`
	Device  string    `json:"device,omitempty"`
	State   string    `json:"state,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

func eventJSON(seq uint64, e *visibility.Event) eventView {
	return eventView{
		Seq:     seq,
		Time:    e.Time,
		Kind:    e.Kind.String(),
		Routine: int64(e.Routine),
		Device:  string(e.Device),
		State:   string(e.State),
		Detail:  e.Detail,
	}
}

func eventsJSON(events []visibility.Event) []eventView {
	out := make([]eventView, 0, len(events))
	for i := range events {
		out = append(out, eventJSON(0, &events[i]))
	}
	return out
}
