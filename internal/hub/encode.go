package hub

import (
	"encoding/json"
	"net/http"
	"sync"

	"safehome/internal/jsonenc"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// This file is the response half of both HTTP surfaces. Every JSON reply is
// built in one pooled buffer and leaves through respBuf.send: one header
// assignment, one WriteHeader, one Write.
//
// The replies a poller or a submitter sees thousands of times a second — a
// home's status, one routine result, an events page, {"id":N} and
// {"error":…} — are written by the append-style encoders below and never
// reach reflection. Everything else goes through writeJSON, which runs
// encoding/json into the same buffer.
//
// The rule the encoders live under: their output is byte for byte what
// encoding/json produces for the same value — key order, omitempty, HTML-safe
// string escaping, RFC 3339-nano times (a zero time is not "empty"), the
// trailing newline of Encoder.Encode, and no body at all for a value
// encoding/json refuses. encode_test.go holds them to it against the
// reflective encoder, so no client can tell which one answered.

// respBuf is one response body under construction. A value encoding/json
// refuses to encode (a time outside years 0..9999) marks it Bad; such a reply
// has always gone out as status and headers with an empty body — Encode fails
// before it writes — and still does.
type respBuf struct{ jsonenc.Buf }

var respPool = sync.Pool{New: func() any { return &respBuf{jsonenc.Buf{B: make([]byte, 0, 1024)}} }}

// maxPooledBody keeps a one-off giant reply (a long results listing) from
// pinning its buffer in the pool forever.
const maxPooledBody = 64 << 10

// jsonContentType is shared by every response: assigning the slice spares
// the []string Header.Set allocates per call. It is never appended to in
// place — len == cap, so an Add by outer middleware reallocates.
var jsonContentType = []string{"application/json"}

func newBody() *respBuf {
	buf := respPool.Get().(*respBuf)
	buf.B, buf.Bad = buf.B[:0], false
	return buf
}

// release returns the buffer to the pool (send does it; a handler that
// abandons a body it started must).
func (buf *respBuf) release() {
	if cap(buf.B) <= maxPooledBody {
		respPool.Put(buf)
	}
}

// send writes the response and recycles the buffer.
func (buf *respBuf) send(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if !buf.Bad {
		_, _ = w.Write(buf.B) // a client that hung up is not the handler's to report
	}
	buf.release()
}

// Write lets encoding/json fill the buffer (the cold path).
func (buf *respBuf) Write(p []byte) (int, error) {
	buf.B = append(buf.B, p...)
	return len(p), nil
}

// writeJSON is the reply of every route without an encoder of its own:
// encoding/json, reflection and all, into the pooled buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := newBody()
	buf.Bad = json.NewEncoder(buf).Encode(v) != nil
	buf.send(w, status)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// Back-pressure and outage statuses carry a Retry-After hint: overload
	// drains within milliseconds and a supervised restart completes within
	// the supervisor's backoff cap, so one second is a safe client pause.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	buf := newBody()
	buf.Str(`{"error":`, err.Error())
	buf.Raw("}\n")
	buf.send(w, status)
}

// writeID is the reply to an admitted submission, {"id":N}.
func writeID(w http.ResponseWriter, status int, id routine.ID) {
	buf := newBody()
	buf.Int(`{"id":`, int64(id))
	buf.Raw("}\n")
	buf.send(w, status)
}

func writeHomeStatus(w http.ResponseWriter, status int, st *manager.HomeStatus) {
	buf := newBody()
	buf.homeStatus(st)
	buf.send(w, status)
}

func writeResult(w http.ResponseWriter, status int, v *resultView) {
	buf := newBody()
	buf.result(v)
	buf.send(w, status)
}

// --- encoders -------------------------------------------------------------------
//
// The field helpers (Raw, Str, Int, Uint, Time) are jsonenc.Buf's; omitempty
// fields are guarded here.

// homeStatus appends a manager.HomeStatus document.
func (buf *respBuf) homeStatus(st *manager.HomeStatus) {
	buf.Str(`{"id":`, string(st.ID))
	buf.Int(`,"shard":`, int64(st.Shard))
	buf.Str(`,"model":`, st.Model)
	buf.Str(`,"health":`, string(st.Health))
	if st.Restarts != 0 {
		buf.Int(`,"restarts":`, st.Restarts)
	}
	if st.LastError != "" {
		buf.Str(`,"last_error":`, st.LastError)
	}
	if st.LastPoison != nil {
		buf.poisonRecord(`,"last_poison":`, st.LastPoison)
	}
	buf.Int(`,"devices":`, int64(st.Devices))
	buf.Int(`,"routines":`, int64(st.Routines))
	buf.Int(`,"pending":`, int64(st.Pending))
	buf.Int(`,"active":`, int64(st.Active))
	buf.Time(`,"now":`, st.Now)
	buf.Time(`,"created":`, st.Created)
	buf.Time(`,"frozen_at":`, st.FrozenAt)
	buf.Time(`,"next_fire":`, st.NextFire)
	buf.Raw("}\n")
}

func (buf *respBuf) poisonRecord(key string, p *rt.PoisonRecord) {
	buf.Raw(key)
	buf.Time(`{"time":`, p.Time)
	buf.Str(`,"home":`, p.Home)
	buf.Str(`,"message":`, p.Message)
	if p.Stack != "" {
		buf.Str(`,"stack":`, p.Stack)
	}
	buf.Raw("}")
}

// result appends a resultView document.
func (buf *respBuf) result(v *resultView) {
	buf.Int(`{"id":`, int64(v.ID))
	buf.Str(`,"name":`, v.Name)
	buf.Str(`,"status":`, v.Status)
	buf.Time(`,"submitted":`, v.Submitted)
	buf.Time(`,"started":`, v.Started)
	buf.Time(`,"finished":`, v.Finished)
	if v.LatencyMS != 0 {
		buf.Int(`,"latency_ms":`, v.LatencyMS)
	}
	buf.Int(`,"executed":`, int64(v.Executed))
	if v.Skipped != 0 {
		buf.Int(`,"skipped":`, int64(v.Skipped))
	}
	if v.BestEffort != 0 {
		buf.Int(`,"best_effort_failures":`, int64(v.BestEffort))
	}
	if v.RolledBack != 0 {
		buf.Int(`,"rolled_back":`, int64(v.RolledBack))
	}
	if v.AbortReason != "" {
		buf.Str(`,"abort_reason":`, v.AbortReason)
	}
	buf.Raw("}\n")
}

// An events page is {"events":[…],"next":N}: openEvents, one event call per
// element straight off the snapshot's chunks, closeEvents.

func (buf *respBuf) openEvents() { buf.Raw(`{"events":[`) }

func (buf *respBuf) event(v *eventView) {
	if buf.B[len(buf.B)-1] != '[' {
		buf.Raw(",")
	}
	buf.Raw("{")
	if v.Seq != 0 {
		buf.Uint(`"seq":`, v.Seq)
		buf.Raw(",")
	}
	buf.Time(`"time":`, v.Time)
	buf.Str(`,"kind":`, v.Kind)
	if v.Routine != 0 {
		buf.Int(`,"routine":`, v.Routine)
	}
	if v.Device != "" {
		buf.Str(`,"device":`, v.Device)
	}
	if v.State != "" {
		buf.Str(`,"state":`, v.State)
	}
	if v.Detail != "" {
		buf.Str(`,"detail":`, v.Detail)
	}
	buf.Raw("}")
}

// pageEvent is the visitor handed to RangeEventsSince.
func (buf *respBuf) pageEvent(seq uint64, e *visibility.Event) {
	v := eventJSON(seq, e)
	buf.event(&v)
}

func (buf *respBuf) closeEvents(next uint64) {
	buf.Uint(`],"next":`, next)
	buf.Raw("}\n")
}
