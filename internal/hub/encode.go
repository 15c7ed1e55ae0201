package hub

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

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

// respBuf is one response body under construction.
type respBuf struct {
	b []byte
	// bad records a value encoding/json refuses to encode (a time outside
	// years 0..9999). Such a reply has always gone out as status and headers
	// with an empty body — Encode fails before it writes — and still does.
	bad bool
}

var respPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 1024)} }}

// maxPooledBody keeps a one-off giant reply (a long results listing) from
// pinning its buffer in the pool forever.
const maxPooledBody = 64 << 10

// jsonContentType is shared by every response: assigning the slice spares
// the []string Header.Set allocates per call. It is never appended to in
// place — len == cap, so an Add by outer middleware reallocates.
var jsonContentType = []string{"application/json"}

func newBody() *respBuf {
	buf := respPool.Get().(*respBuf)
	buf.b, buf.bad = buf.b[:0], false
	return buf
}

// release returns the buffer to the pool (send does it; a handler that
// abandons a body it started must).
func (buf *respBuf) release() {
	if cap(buf.b) <= maxPooledBody {
		respPool.Put(buf)
	}
}

// send writes the response and recycles the buffer.
func (buf *respBuf) send(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if !buf.bad {
		_, _ = w.Write(buf.b) // a client that hung up is not the handler's to report
	}
	buf.release()
}

// Write lets encoding/json fill the buffer (the cold path).
func (buf *respBuf) Write(p []byte) (int, error) {
	buf.b = append(buf.b, p...)
	return len(p), nil
}

// writeJSON is the reply of every route without an encoder of its own:
// encoding/json, reflection and all, into the pooled buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := newBody()
	buf.bad = json.NewEncoder(buf).Encode(v) != nil
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
	buf.str(`{"error":`, err.Error())
	buf.raw("}\n")
	buf.send(w, status)
}

// writeID is the reply to an admitted submission, {"id":N}.
func writeID(w http.ResponseWriter, status int, id routine.ID) {
	buf := newBody()
	buf.int(`{"id":`, int64(id))
	buf.raw("}\n")
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
// Each field helper appends the given literal (separator, quoted key, colon)
// and then the value; omitempty fields are guarded by their caller.

func (buf *respBuf) raw(lit string) { buf.b = append(buf.b, lit...) }

func (buf *respBuf) int(key string, n int64) {
	buf.b = strconv.AppendInt(append(buf.b, key...), n, 10)
}

func (buf *respBuf) uint(key string, n uint64) {
	buf.b = strconv.AppendUint(append(buf.b, key...), n, 10)
}

// time appends the time as Time.MarshalJSON renders it, including its
// refusals: RFC 3339 has no year beyond four digits and no zone offset of a
// day or more.
func (buf *respBuf) time(key string, t time.Time) {
	b := append(buf.b, key...)
	b = append(b, '"')
	start := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[start+len("9999")] != '-' {
		buf.bad = true
	} else if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("Z07:00"):]
		if c := zone[0]; ('0' <= c && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			buf.bad = true
		}
	}
	buf.b = append(b, '"')
}

const hexDigits = "0123456789abcdef"

// str appends s as encoding/json quotes a string with HTML escaping on (the
// Encoder default): ", \ and control bytes escaped, <, > and & as \u00XX,
// U+2028/2029 escaped, each invalid UTF-8 byte replaced by \ufffd.
func (buf *respBuf) str(key, s string) {
	b := append(buf.b, key...)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	buf.b = append(b, '"')
}

// homeStatus appends a manager.HomeStatus document.
func (buf *respBuf) homeStatus(st *manager.HomeStatus) {
	buf.str(`{"id":`, string(st.ID))
	buf.int(`,"shard":`, int64(st.Shard))
	buf.str(`,"model":`, st.Model)
	buf.str(`,"health":`, string(st.Health))
	if st.Restarts != 0 {
		buf.int(`,"restarts":`, st.Restarts)
	}
	if st.LastError != "" {
		buf.str(`,"last_error":`, st.LastError)
	}
	if st.LastPoison != nil {
		buf.poisonRecord(`,"last_poison":`, st.LastPoison)
	}
	buf.int(`,"devices":`, int64(st.Devices))
	buf.int(`,"routines":`, int64(st.Routines))
	buf.int(`,"pending":`, int64(st.Pending))
	buf.int(`,"active":`, int64(st.Active))
	buf.time(`,"now":`, st.Now)
	buf.time(`,"created":`, st.Created)
	buf.time(`,"frozen_at":`, st.FrozenAt)
	buf.time(`,"next_fire":`, st.NextFire)
	buf.raw("}\n")
}

func (buf *respBuf) poisonRecord(key string, p *rt.PoisonRecord) {
	buf.raw(key)
	buf.time(`{"time":`, p.Time)
	buf.str(`,"home":`, p.Home)
	buf.str(`,"message":`, p.Message)
	if p.Stack != "" {
		buf.str(`,"stack":`, p.Stack)
	}
	buf.raw("}")
}

// result appends a resultView document.
func (buf *respBuf) result(v *resultView) {
	buf.int(`{"id":`, int64(v.ID))
	buf.str(`,"name":`, v.Name)
	buf.str(`,"status":`, v.Status)
	buf.time(`,"submitted":`, v.Submitted)
	buf.time(`,"started":`, v.Started)
	buf.time(`,"finished":`, v.Finished)
	if v.LatencyMS != 0 {
		buf.int(`,"latency_ms":`, v.LatencyMS)
	}
	buf.int(`,"executed":`, int64(v.Executed))
	if v.Skipped != 0 {
		buf.int(`,"skipped":`, int64(v.Skipped))
	}
	if v.BestEffort != 0 {
		buf.int(`,"best_effort_failures":`, int64(v.BestEffort))
	}
	if v.RolledBack != 0 {
		buf.int(`,"rolled_back":`, int64(v.RolledBack))
	}
	if v.AbortReason != "" {
		buf.str(`,"abort_reason":`, v.AbortReason)
	}
	buf.raw("}\n")
}

// An events page is {"events":[…],"next":N}: openEvents, one event call per
// element straight off the snapshot's chunks, closeEvents.

func (buf *respBuf) openEvents() { buf.raw(`{"events":[`) }

func (buf *respBuf) event(v *eventView) {
	if buf.b[len(buf.b)-1] != '[' {
		buf.raw(",")
	}
	buf.raw("{")
	if v.Seq != 0 {
		buf.uint(`"seq":`, v.Seq)
		buf.raw(",")
	}
	buf.time(`"time":`, v.Time)
	buf.str(`,"kind":`, v.Kind)
	if v.Routine != 0 {
		buf.int(`,"routine":`, v.Routine)
	}
	if v.Device != "" {
		buf.str(`,"device":`, v.Device)
	}
	if v.State != "" {
		buf.str(`,"state":`, v.State)
	}
	if v.Detail != "" {
		buf.str(`,"detail":`, v.Detail)
	}
	buf.raw("}")
}

// pageEvent is the visitor handed to RangeEventsSince.
func (buf *respBuf) pageEvent(seq uint64, e *visibility.Event) {
	v := eventJSON(seq, e)
	buf.event(&v)
}

func (buf *respBuf) closeEvents(next uint64) {
	buf.uint(`],"next":`, next)
	buf.raw("}\n")
}
