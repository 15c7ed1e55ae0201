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
	"safehome/internal/live"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// ManagerHandler returns the multi-tenant HTTP API served when the hub runs
// in manager mode (`safehome-hub -homes N -shards S`). Every home-scoped
// route is dispatched through the manager, which serializes it on the home's
// shard:
//
//	GET    /healthz                          process liveness (always 200)
//	GET    /readyz                           readiness + supervision counters
//	GET    /metrics                          Prometheus text exposition
//	GET    /api/status                       manager summary (shards, totals)
//	GET    /homes                            every home's summary (incl. health)
//	PUT    /homes/{id}?plugs=N               create a home with N plug devices
//	GET    /homes/{id}/status                one home's summary
//	GET    /homes/{id}/devices               ground-truth device states
//	GET    /homes/{id}/routines              the home's routine results
//	POST   /homes/{id}/routines              submit a routine (Fig 10-style JSON)
//	GET    /homes/{id}/routines/{rid}        one routine result
//	GET    /homes/{id}/events?since=N        the home's event tail + next cursor
//	                                         (empty unless the manager was built
//	                                         with a per-home event log); a poll
//	                                         at the cursor of a hibernated home
//	                                         is answered without waking it
//	POST   /homes/{id}/devices/{dev}/fail    inject a fail-stop device failure
//	POST   /homes/{id}/devices/{dev}/restore inject the matching restart
//	GET    /homes/{id}/bank                  stored routine names (Fig 11's bank)
//	POST   /homes/{id}/bank                  store a routine definition
//	POST   /homes/{id}/bank/{name}/trigger   dispatch a stored routine
//	POST   /homes/{id}/bank/{name}/schedule  arm a trigger: ?after=D once, or
//	                                         ?every=D (a wall-clock home only)
//	GET    /homes/{id}/triggers              the armed triggers, in handle order
//	DELETE /homes/{id}/triggers/{handle}     cancel a trigger
//
// defaultPlugs is the fleet size given to homes created without an explicit
// ?plugs= (values < 1 fall back to 5); the hub passes its -plugs flag so
// API-created homes match the startup homes.
//
// The mux built here is the routing table for every route above. The ones a
// poller or a submitter hits — status, routines, routines/{rid}, events —
// are recognised by api.ServeHTTP before it, by splitting the path by hand,
// and land in the same handler functions. The wire format is encoding/json's
// throughout (see encode.go).
func ManagerHandler(m *manager.Manager, defaultPlugs int) http.Handler {
	if defaultPlugs < 1 {
		defaultPlugs = 5
	}
	a := newAPI(m, "")
	mux := a.mux
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
			if n > maxPlugs {
				writeError(w, http.StatusBadRequest, fmt.Errorf("plugs count %d is over the limit of %d", n, maxPlugs))
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
	a.homeRoutes("/homes/{id}")
	return a
}

// maxPlugs bounds ?plugs= on PUT /homes/{id}. The fleet is built before the
// home is, one device at a time, so a larger count is refused before
// anything is built: one request must not be able to exhaust the process
// every home shares. The largest fleet anywhere in the repo is 10 plugs.
const maxPlugs = 1024

// HomeHandler returns the single-home HTTP API: every per-home route of
// ManagerHandler for the one home id, served as /api/X instead of
// /homes/{id}/X (status, devices, routines, events, device fail/restore,
// bank and triggers), plus GET /healthz and GET /metrics.
//
// Four routes keep the single hub's own views, its wire contract since
// before it was a manager:
//
//	GET /readyz       the home's health: 503 + Retry-After while it
//	                  restarts or sits in quarantine
//	GET /api/status   the home summary, Status
//	GET /api/devices  the DeviceStatus list: state, liveness and breaker
//	GET /api/events   without ?since=, the unpaged array of recent events
//
// Reads answer from the home's last runtime generation while it restarts or
// sits in quarantine, where /homes/{id} answers 503. There is no PUT
// /homes: every home of a device-bound manager would share its one
// actuator.
func HomeHandler(m *manager.Manager, id manager.HomeID) http.Handler {
	a := newAPI(m, id)
	a.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		slot, err := m.Slot(id)
		if err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		health := slot.Health()
		if slot.Serving() {
			writeJSON(w, http.StatusOK, map[string]string{"status": string(health)})
			return
		}
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("hub %s", health))
	})
	a.homeRoutes("/api")
	return a
}

// api is the one handler of both shapes: the hot routes by hand, the rest
// (and every request the hand router does not recognise to the letter:
// other methods, trailing slashes, percent-encoded or unclean paths) through
// the mux, which owns 404, 405 + Allow and redirects.
type api struct {
	m   *manager.Manager
	mux *http.ServeMux
	// home is the fixed home the /api routes serve (HomeHandler); empty on
	// ManagerHandler, whose routes name their home.
	home manager.HomeID
}

// newAPI starts a handler with the process routes both shapes serve.
func newAPI(m *manager.Manager, home manager.HomeID) *api {
	a := &api{m: m, mux: http.NewServeMux(), home: home}
	a.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	a.mux.Handle("GET /metrics", m.Telemetry().Handler())
	return a
}

// homeRoutes registers the per-home routes under prefix: /homes/{id} or the
// fixed home's /api.
func (a *api) homeRoutes(prefix string) {
	handle := func(method, route string, h func(w http.ResponseWriter, r *http.Request, id manager.HomeID)) {
		a.mux.HandleFunc(method+" "+prefix+route, func(w http.ResponseWriter, r *http.Request) { h(w, r, a.homeOf(r)) })
	}
	handle("GET", "/status", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		a.status(w, http.StatusOK, id)
	})
	handle("GET", "/devices", a.devices)
	handle("GET", "/routines", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) { a.results(w, id) })
	handle("POST", "/routines", a.submit)
	handle("GET", "/routines/{rid}", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		a.result(w, id, r.PathValue("rid"))
	})
	handle("GET", "/events", a.events)
	handle("POST", "/devices/{dev}/fail", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		if err := a.m.FailDevice(id, device.ID(r.PathValue("dev"))); err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"failed": r.PathValue("dev")})
	})
	handle("POST", "/devices/{dev}/restore", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		if err := a.m.RestoreDevice(id, device.ID(r.PathValue("dev"))); err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"restored": r.PathValue("dev")})
	})
	handle("GET", "/bank", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		if home, ok := a.runtime(w, id); ok {
			writeJSON(w, http.StatusOK, home.Bank().Names())
		}
	})
	handle("POST", "/bank", a.store)
	handle("POST", "/bank/{name}/trigger", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		rid, err := a.m.Trigger(id, r.PathValue("name"))
		if err != nil {
			writeOpError(w, http.StatusNotFound, err)
			return
		}
		writeID(w, http.StatusAccepted, rid)
	})
	handle("POST", "/bank/{name}/schedule", a.schedule)
	handle("GET", "/triggers", func(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
		if home, ok := a.runtime(w, id); ok {
			writeJSON(w, http.StatusOK, home.Triggers())
		}
	})
	handle("DELETE", "/triggers/{handle}", a.cancelTrigger)
}

func (a *api) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, tail, ok := a.cut(r.URL); ok {
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

// cut splits a per-home path into its home and the route below it:
// /homes/{id}/{tail...}, or the fixed home's /api/{tail...}. It declines
// (ok false) any path the mux would not pass through verbatim: a
// percent-encoded one (RawPath set) or one whose id segment path cleaning
// would rewrite.
func (a *api) cut(u *url.URL) (id manager.HomeID, tail string, ok bool) {
	if u.RawPath != "" {
		return "", "", false
	}
	if a.home != "" {
		tail, ok = strings.CutPrefix(u.Path, "/api/")
		return a.home, tail, ok
	}
	rest, ok := strings.CutPrefix(u.Path, "/homes/")
	if !ok {
		return "", "", false
	}
	seg, tail, ok := strings.Cut(rest, "/")
	return manager.HomeID(seg), tail, ok && plainSegment(seg)
}

// plainSegment reports whether s is a path segment the mux would hand to a
// {wildcard} unchanged: one non-empty segment that path cleaning leaves
// alone. (Percent-encoded paths never get this far: see RawPath above.)
func plainSegment(s string) bool {
	return s != "" && s != "." && s != ".." && !strings.Contains(s, "/")
}

// homeOf is the home a mux-routed request names.
func (a *api) homeOf(r *http.Request) manager.HomeID {
	if a.home != "" {
		return a.home
	}
	return manager.HomeID(r.PathValue("id"))
}

// runtime returns the generation a read of home id answers from, or answers
// the request itself with the error. On /homes/{id} it is the manager's live
// one, so a home that is down answers 503; on the fixed home's /api it is
// the last one (see generation).
func (a *api) runtime(w http.ResponseWriter, id manager.HomeID) (*rt.HomeRuntime, bool) {
	var (
		home *rt.HomeRuntime
		err  error
	)
	if a.home != "" {
		home, err = generation(a.m, id)
	} else {
		home, err = a.m.Runtime(id)
	}
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return home, true
}

// generation returns the runtime a single-home read answers from: the
// slot's current generation, which while the home restarts or sits in
// quarantine is the last one. Only a hibernated home has none (never one
// New built: a device-bound home does not hibernate), and it is woken.
func generation(m *manager.Manager, id manager.HomeID) (*rt.HomeRuntime, error) {
	slot, err := m.Slot(id)
	if err != nil {
		return nil, err
	}
	if home := slot.Load(); home != nil {
		return home, nil
	}
	return m.Runtime(id)
}

func (a *api) status(w http.ResponseWriter, status int, id manager.HomeID) {
	if a.home != "" {
		st, err := StatusOf(a.m, id)
		if err != nil {
			writeOpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, status, st)
		return
	}
	st, err := a.m.HomeStatus(id)
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeHomeStatus(w, status, &st)
}

func (a *api) devices(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
	var (
		view any
		err  error
	)
	if a.home != "" {
		view, err = DevicesOf(a.m, id)
	} else {
		view, err = a.m.DeviceStates(id)
	}
	if err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (a *api) results(w http.ResponseWriter, id manager.HomeID) {
	if home, ok := a.runtime(w, id); ok {
		writeJSON(w, http.StatusOK, resultsJSON(home.Results()))
	}
}

func (a *api) result(w http.ResponseWriter, id manager.HomeID, ridText string) {
	rid, err := strconv.ParseInt(ridText, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad routine id: %w", err))
		return
	}
	home, ok := a.runtime(w, id)
	if !ok {
		return
	}
	res, ok := home.ResultRef(routine.ID(rid))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no routine %d", rid))
		return
	}
	v := resultJSON(res)
	writeResult(w, http.StatusOK, &v)
}

// events encodes the page straight off the home's snapshot: no event is
// copied out of its chunk. On /homes/{id} a missing cursor reads as 0; on
// the fixed home's /api it asks for the unpaged array.
func (a *api) events(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
	since, paged, err := sinceCursor(r.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var home *rt.HomeRuntime
	if a.home != "" {
		var ok bool
		if home, ok = a.runtime(w, id); !ok {
			return
		}
		if !paged {
			writeJSON(w, http.StatusOK, eventsJSON(home.Events()))
			return
		}
	}
	buf := newBody()
	buf.openEvents()
	var next uint64
	if home != nil {
		next = home.RangeEventsSince(since, buf.pageEvent)
	} else if next, err = a.m.RangeEvents(id, since, buf.pageEvent); err != nil {
		buf.release()
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
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

func (a *api) submit(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
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

func (a *api) store(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
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
	if err := a.m.StoreRoutine(id, def); err != nil {
		if a.home != "" {
			// The single hub's wire contract: it has always answered a
			// refused store 400, a closed or overloaded home's included.
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"stored": def.Name})
}

// schedule creates an automation trigger for a stored routine. The delay
// (one-shot) or interval (recurring) is given as a Go duration string in the
// `after` or `every` query parameter.
func (a *api) schedule(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
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
			handle, err = a.m.ScheduleEvery(id, name, interval)
		}
	case r.URL.Query().Get("after") != "":
		var delay time.Duration
		delay, err = time.ParseDuration(r.URL.Query().Get("after"))
		if err == nil {
			handle, err = a.m.ScheduleAfter(id, name, delay)
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

func (a *api) cancelTrigger(w http.ResponseWriter, r *http.Request, id manager.HomeID) {
	handle, err := strconv.ParseInt(r.PathValue("handle"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trigger handle: %w", err))
		return
	}
	if err := a.m.CancelTrigger(id, TriggerHandle(handle)); err != nil {
		writeOpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cancelled": r.PathValue("handle")})
}

// writeOpError maps runtime and manager errors onto HTTP statuses. An
// unknown home is 404 and a duplicate one 409. A full mailbox is 429 Too
// Many Requests: the home is overloaded and the client should back off and
// retry. A closed, poisoned, restarting or quarantined home is 503 Service
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

func plugDevices(n int) []device.Info { return device.Plugs(n).All() }

// --- single-home views ----------------------------------------------------------

// DeviceStatus describes one device for the single-home API and CLI.
// Breaker is the device's circuit-breaker state ("closed" when healthy;
// "open" while the actuation path sheds commands to it; "half-open" while
// probing recovery).
type DeviceStatus struct {
	Info    device.Info  `json:"info"`
	State   device.State `json:"state"`
	Up      bool         `json:"up"`
	Breaker string       `json:"breaker,omitempty"`
}

// DevicesOf reports every device of home id: its committed state (the
// controller's view), liveness and actuation-path breaker state.
func DevicesOf(m *manager.Manager, id manager.HomeID) ([]DeviceStatus, error) {
	runtime, err := generation(m, id)
	if err != nil {
		return nil, err
	}
	committed := runtime.CommittedStates()
	detector := runtime.Detector()
	breakers := make(map[device.ID]string)
	for _, b := range runtime.Breakers() {
		breakers[b.Device] = b.State
	}

	infos := runtime.Registry().All()
	out := make([]DeviceStatus, 0, len(infos))
	for _, info := range infos {
		st, ok := committed[info.ID]
		if !ok {
			st = info.Initial
		}
		out = append(out, DeviceStatus{
			Info:    info,
			State:   st,
			Up:      detector.Up(info.ID),
			Breaker: breakers[info.ID],
		})
	}
	return out, nil
}

// Status summarizes one home for the single-home API and CLI.
type Status struct {
	Model     string              `json:"model"`
	Scheduler string              `json:"scheduler"`
	Health    rt.HomeHealth       `json:"health"`
	Poisons   int64               `json:"poisons,omitempty"`
	Restarts  int64               `json:"restarts,omitempty"`
	LastError string              `json:"last_error,omitempty"`
	Devices   int                 `json:"devices"`
	Routines  int                 `json:"routines"`
	Pending   int                 `json:"pending"`
	Active    int                 `json:"active"`
	Stored    int                 `json:"stored_routines"`
	Mailbox   rt.MailboxStats     `json:"mailbox"`
	Breakers  []live.BreakerStats `json:"breakers,omitempty"`
	Durable   bool                `json:"durable,omitempty"`
	// Durability is the journal tier in effect (sync/group/async).
	Durability string           `json:"durability,omitempty"`
	LastPoison *rt.PoisonRecord `json:"last_poison,omitempty"`
	Since      time.Time        `json:"since"`
}

// StatusOf summarizes home id, the supervision and journal fields from the
// manager. It answers while the home restarts or sits in quarantine too,
// from the last generation's published snapshot.
func StatusOf(m *manager.Manager, id manager.HomeID) (Status, error) {
	runtime, err := generation(m, id)
	if err != nil {
		return Status{}, err
	}
	hs, _ := m.HomeStatus(id) // found above, and homes are never removed
	ms := m.Status()
	return Status{
		Model:      hs.Model,
		Scheduler:  runtime.Counts().Scheduler,
		Health:     hs.Health,
		Poisons:    ms.Poisons,
		Restarts:   hs.Restarts,
		LastError:  hs.LastError,
		Devices:    hs.Devices,
		Routines:   hs.Routines,
		Pending:    hs.Pending,
		Active:     hs.Active,
		Stored:     runtime.Bank().Len(),
		Mailbox:    runtime.Mailbox(),
		Breakers:   runtime.Breakers(),
		Durable:    runtime.Durable(),
		Durability: ms.Durability,
		LastPoison: hs.LastPoison,
		Since:      ms.Since,
	}, nil
}

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
