package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// This file is the wire contract's reference implementation: both HTTP
// surfaces exactly as they stood before the read path was hand-routed and
// hand-encoded — one ServeMux each, PathValue, url.Values, every reply
// through the reflective oracleWriteJSON. It is frozen: wire_test.go replays
// sessions through it and through the live handlers and requires identical
// status, headers and bytes, and encode_test.go holds every hand encoder to
// oracleWriteJSON. Only the view builders (resultJSON, eventsJSON) are
// shared with the live code.

// oracleHubHandler is Hub.Handler as it was.
func oracleHubHandler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		health := h.Health()
		if h.Serving() {
			oracleWriteJSON(w, http.StatusOK, map[string]string{"status": string(health)})
			return
		}
		oracleWriteError(w, http.StatusServiceUnavailable, fmt.Errorf("hub %s", health))
	})
	mux.Handle("GET /metrics", h.Telemetry().Handler())
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, h.Status())
	})
	mux.HandleFunc("GET /api/devices", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, h.Devices())
	})
	mux.HandleFunc("GET /api/routines", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, resultsJSON(h.Results()))
	})
	mux.HandleFunc("GET /api/routines/{id}", func(w http.ResponseWriter, r *http.Request) { oracleHandleGetRoutine(h, w, r) })
	mux.HandleFunc("POST /api/routines", func(w http.ResponseWriter, r *http.Request) { oracleHandleSubmit(h, w, r) })
	mux.HandleFunc("GET /api/bank", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, h.StoredRoutines())
	})
	mux.HandleFunc("POST /api/bank", func(w http.ResponseWriter, r *http.Request) { oracleHandleStore(h, w, r) })
	mux.HandleFunc("POST /api/bank/{name}/trigger", func(w http.ResponseWriter, r *http.Request) { oracleHandleTrigger(h, w, r) })
	mux.HandleFunc("POST /api/bank/{name}/schedule", func(w http.ResponseWriter, r *http.Request) { oracleHandleSchedule(h, w, r) })
	mux.HandleFunc("GET /api/triggers", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, h.Triggers())
	})
	mux.HandleFunc("DELETE /api/triggers/{handle}", func(w http.ResponseWriter, r *http.Request) { oracleHandleCancelTrigger(h, w, r) })
	mux.HandleFunc("GET /api/events", func(w http.ResponseWriter, r *http.Request) {
		since, ok, err := oracleSinceCursor(r)
		if err != nil {
			oracleWriteError(w, http.StatusBadRequest, err)
			return
		}
		if !ok {
			oracleWriteJSON(w, http.StatusOK, eventsJSON(h.Events()))
			return
		}
		ev, next := h.EventsSince(since)
		oracleWriteJSON(w, http.StatusOK, oracleEventsPage(ev, next))
	})
	return mux
}

// sinceCursor parses the optional ?since= event cursor. An empty or missing
// value reports absent (full fetch) rather than an error, so templated URLs
// with an unset cursor variable behave the same on every events route.
func oracleSinceCursor(r *http.Request) (since uint64, ok bool, err error) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, false, nil
	}
	since, err = strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad since cursor: %w", err)
	}
	return since, true, nil
}

// handleSchedule creates an automation trigger for a stored routine. The
// delay (one-shot) or interval (recurring) is given as a Go duration string
// in the `after` or `every` query parameter.
func oracleHandleSchedule(h *Hub, w http.ResponseWriter, r *http.Request) {
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
		oracleWriteHubError(w, http.StatusBadRequest, err)
		return
	}
	oracleWriteJSON(w, http.StatusCreated, map[string]any{"handle": handle})
}

func oracleHandleCancelTrigger(h *Hub, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("handle"), 10, 64)
	if err != nil {
		oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("bad trigger handle: %w", err))
		return
	}
	if err := h.CancelTrigger(TriggerHandle(id)); err != nil {
		oracleWriteHubError(w, http.StatusBadRequest, err)
		return
	}
	oracleWriteJSON(w, http.StatusOK, map[string]string{"cancelled": r.PathValue("handle")})
}

func oracleHandleSubmit(h *Hub, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	id, err := h.SubmitSpec(body)
	if err != nil {
		oracleWriteHubError(w, http.StatusBadRequest, err)
		return
	}
	oracleWriteJSON(w, http.StatusAccepted, map[string]any{"id": id})
}

func oracleHandleGetRoutine(h *Hub, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("bad routine id: %w", err))
		return
	}
	res, ok := h.Result(routine.ID(id))
	if !ok {
		oracleWriteError(w, http.StatusNotFound, fmt.Errorf("no routine %d", id))
		return
	}
	oracleWriteJSON(w, http.StatusOK, resultJSON(&res))
}

func oracleHandleStore(h *Hub, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	def, err := routine.ParseSpec(body)
	if err != nil {
		oracleWriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.StoreRoutine(def); err != nil {
		oracleWriteError(w, http.StatusBadRequest, err)
		return
	}
	oracleWriteJSON(w, http.StatusCreated, map[string]string{"stored": def.Name})
}

func oracleHandleTrigger(h *Hub, w http.ResponseWriter, r *http.Request) {
	id, err := h.Trigger(r.PathValue("name"))
	if err != nil {
		oracleWriteHubError(w, http.StatusNotFound, err)
		return
	}
	oracleWriteJSON(w, http.StatusAccepted, map[string]any{"id": id})
}

// writeHubError maps single-home hub errors onto HTTP statuses: a full
// mailbox is 429 Too Many Requests (back off and retry), a closed or
// poisoned-and-restarting hub is 503, anything else keeps the handler's
// fallback status.
func oracleWriteHubError(w http.ResponseWriter, fallback int, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		oracleWriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrPoisoned):
		oracleWriteError(w, http.StatusServiceUnavailable, err)
	default:
		oracleWriteError(w, fallback, err)
	}
}

// oracleManagerHandler is ManagerHandler as it was.
func oracleManagerHandler(m *manager.Manager, defaultPlugs int) http.Handler {
	if defaultPlugs < 1 {
		defaultPlugs = 5
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The manager serves as long as the process does; per-home readiness
		// (restarting/quarantined homes answer 503 on their scoped routes) is
		// visible in /homes and the supervision counters here.
		st := m.Status()
		oracleWriteJSON(w, http.StatusOK, map[string]any{
			"status":      "ok",
			"homes":       st.Homes,
			"poisons":     st.Poisons,
			"restarts":    st.Restarts,
			"quarantined": st.Quarantined,
		})
	})
	mux.Handle("GET /metrics", m.Telemetry().Handler())
	mux.HandleFunc("GET /api/status", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, m.Status())
	})
	mux.HandleFunc("GET /homes", func(w http.ResponseWriter, r *http.Request) {
		oracleWriteJSON(w, http.StatusOK, m.Homes())
	})
	mux.HandleFunc("PUT /homes/{id}", func(w http.ResponseWriter, r *http.Request) {
		plugs := defaultPlugs
		if q := r.URL.Query().Get("plugs"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("bad plugs count %q", q))
				return
			}
			plugs = n
		}
		id := manager.HomeID(r.PathValue("id"))
		if err := m.AddHome(id, plugDevices(plugs)...); err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		st, err := m.HomeStatus(id)
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /homes/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.HomeStatus(manager.HomeID(r.PathValue("id")))
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /homes/{id}/devices", func(w http.ResponseWriter, r *http.Request) {
		states, err := m.DeviceStates(manager.HomeID(r.PathValue("id")))
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, states)
	})
	mux.HandleFunc("GET /homes/{id}/routines", func(w http.ResponseWriter, r *http.Request) {
		results, err := m.Results(manager.HomeID(r.PathValue("id")))
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, resultsJSON(results))
	})
	mux.HandleFunc("POST /homes/{id}/routines", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
			return
		}
		rid, err := m.SubmitSpec(manager.HomeID(r.PathValue("id")), body)
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusAccepted, map[string]any{"id": rid})
	})
	mux.HandleFunc("GET /homes/{id}/routines/{rid}", func(w http.ResponseWriter, r *http.Request) {
		rid, err := strconv.ParseInt(r.PathValue("rid"), 10, 64)
		if err != nil {
			oracleWriteError(w, http.StatusBadRequest, fmt.Errorf("bad routine id: %w", err))
			return
		}
		res, ok, err := m.Result(manager.HomeID(r.PathValue("id")), routine.ID(rid))
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		if !ok {
			oracleWriteError(w, http.StatusNotFound, fmt.Errorf("no routine %d", rid))
			return
		}
		oracleWriteJSON(w, http.StatusOK, resultJSON(&res))
	})
	mux.HandleFunc("GET /homes/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		since, _, err := oracleSinceCursor(r)
		if err != nil {
			oracleWriteError(w, http.StatusBadRequest, err)
			return
		}
		ev, next, err := m.Events(manager.HomeID(r.PathValue("id")), since)
		if err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, oracleEventsPage(ev, next))
	})
	mux.HandleFunc("POST /homes/{id}/devices/{dev}/fail", func(w http.ResponseWriter, r *http.Request) {
		if err := m.FailDevice(manager.HomeID(r.PathValue("id")), device.ID(r.PathValue("dev"))); err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, map[string]string{"failed": r.PathValue("dev")})
	})
	mux.HandleFunc("POST /homes/{id}/devices/{dev}/restore", func(w http.ResponseWriter, r *http.Request) {
		if err := m.RestoreDevice(manager.HomeID(r.PathValue("id")), device.ID(r.PathValue("dev"))); err != nil {
			oracleWriteManagerError(w, err)
			return
		}
		oracleWriteJSON(w, http.StatusOK, map[string]string{"restored": r.PathValue("dev")})
	})
	return mux
}

// writeManagerError maps manager errors onto HTTP statuses. A full home
// mailbox surfaces as 429 Too Many Requests: the home is overloaded and the
// client should back off and retry, instead of the old behavior of blocking
// the request goroutine until the shard caught up. A poisoned, restarting or
// quarantined home is 503 Service Unavailable with a Retry-After hint — the
// supervisor is (or gave up) bringing it back, and other homes on the shard
// keep serving.
func oracleWriteManagerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, manager.ErrUnknownHome):
		oracleWriteError(w, http.StatusNotFound, err)
	case errors.Is(err, manager.ErrDuplicateHome):
		oracleWriteError(w, http.StatusConflict, err)
	case errors.Is(err, manager.ErrOverloaded):
		oracleWriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, manager.ErrClosed),
		errors.Is(err, manager.ErrRestarting),
		errors.Is(err, manager.ErrQuarantined),
		errors.Is(err, manager.ErrPoisoned):
		oracleWriteError(w, http.StatusServiceUnavailable, err)
	default:
		oracleWriteError(w, http.StatusBadRequest, err)
	}
}

// eventsPageView is the cursor-paged events response: poll again with
// ?since=<next> to fetch only what happened after this page.
type eventsPageView struct {
	Events []eventView `json:"events"`
	Next   uint64      `json:"next"`
}

// eventsPage stamps each event with its sequence number (the page ends just
// before the next cursor, so sequences count back from it).
func oracleEventsPage(events []visibility.Event, next uint64) eventsPageView {
	views := eventsJSON(events)
	first := next - uint64(len(views))
	for i := range views {
		views[i].Seq = first + uint64(i)
	}
	return eventsPageView{Events: views, Next: next}
}

func oracleWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func oracleWriteError(w http.ResponseWriter, status int, err error) {
	// Back-pressure and outage statuses carry a Retry-After hint: overload
	// drains within milliseconds and a supervised restart completes within
	// the supervisor's backoff cap, so one second is a safe client pause.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	oracleWriteJSON(w, status, map[string]string{"error": err.Error()})
}
