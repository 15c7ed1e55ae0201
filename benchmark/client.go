package main

// The in-process load generator: callers are goroutines that invoke
// hub.ManagerHandler(...).ServeHTTP directly with a discarding
// ResponseWriter and wait for it to return (closed loop). No sockets, no
// net/http server: the kernel's TCP path is safehome-loadgen's subject, not
// this benchmark's.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

func homeID(h int) string { return "home-" + strconv.Itoa(h) }

// paths holds every URL path the generator can request, rendered once.
type paths struct {
	routines [numHomes]string                 // /homes/{id}/routines
	status   [numHomes]string                 // /homes/{id}/status
	events   [numHomes]string                 // /homes/{id}/events
	result   [numHomes][preseedPer + 1]string // /homes/{id}/routines/{rid}
}

var urlPaths = func() *paths {
	p := &paths{}
	for h := 0; h < numHomes; h++ {
		base := "/homes/" + homeID(h)
		p.routines[h] = base + "/routines"
		p.status[h] = base + "/status"
		p.events[h] = base + "/events"
		for rid := range p.result[h] {
			p.result[h][rid] = base + "/routines/" + strconv.Itoa(rid)
		}
	}
	return p
}()

// respWriter discards the response but keeps what the output checks need:
// status, byte count, and the first and last bytes of the body.
type respWriter struct {
	hdr    http.Header
	status int
	n      int
	head   [24]byte
	tail   [24]byte
	tailN  int
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK // net/http's implicit WriteHeader
	}
	if w.n < len(w.head) {
		copy(w.head[w.n:], p)
	}
	w.n += len(p)
	w.tailN = copy(w.tail[:], p[max(0, len(p)-len(w.tail)):])
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status, w.n, w.tailN = 0, 0, 0
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// caller is one closed-loop client. It reuses one request and one response
// writer for every call, so the generator itself adds almost nothing to the
// allocation and CPU metrics.
type caller struct {
	h      http.Handler
	w      respWriter
	req    http.Request
	u      url.URL
	body   bodyReader
	cursor [numHomes]uint64 // this client's events cursor per home

	calls, bad int64
	respBytes  int64 // body bytes of successful GETs
	reads      int64
	firstBad   string
}

func newCaller(h http.Handler) *caller {
	c := &caller{h: h}
	c.w.hdr = http.Header{}
	c.req = http.Request{URL: &c.u, Header: http.Header{}, Host: "bench", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	return c
}

// do issues one generated op and checks its response: a POST must answer 202
// with a positive routine id, a GET 200 with a non-empty body. It returns
// the routine id a POST was assigned.
func (c *caller) do(s *stream, o op) (rid int64) {
	c.w.reset()
	c.u.RawQuery = ""
	c.req.Method, c.req.Body, c.req.ContentLength = http.MethodGet, http.NoBody, 0
	switch o.kind {
	case opSubmit:
		c.body.Reset(s.bodies[o.body])
		c.req.Method, c.req.Body, c.req.ContentLength = http.MethodPost, &c.body, int64(c.body.Len())
		c.u.Path = urlPaths.routines[o.home]
	case opStatus:
		c.u.Path = urlPaths.status[o.home]
	case opResult:
		c.u.Path = urlPaths.result[o.home][o.rid]
	case opEvents:
		c.u.Path = urlPaths.events[o.home]
		c.u.RawQuery = "since=" + strconv.FormatUint(c.cursor[o.home], 10)
	case opMetrics:
		c.u.Path = "/metrics"
	}
	c.h.ServeHTTP(&c.w, &c.req)

	c.calls++
	ok := false
	switch o.kind {
	case opSubmit:
		rid = leadingID(c.w.head[:min(c.w.n, len(c.w.head))])
		ok = c.w.status == http.StatusAccepted && rid > 0
	case opEvents:
		next, found := trailingNext(c.w.tail[:c.w.tailN])
		ok = c.w.status == http.StatusOK && found && next >= c.cursor[o.home]
		if ok {
			c.cursor[o.home] = next
		}
	default:
		ok = c.w.status == http.StatusOK && c.w.n > 0
	}
	if o.kind != opSubmit && o.kind != opMetrics && ok {
		c.reads++
		c.respBytes += int64(c.w.n)
	}
	if !ok {
		c.bad++
		if c.firstBad == "" {
			c.firstBad = fmt.Sprintf("%s %s -> %d %q", c.req.Method, c.u.Path, c.w.status, c.w.head[:min(c.w.n, len(c.w.head))])
		}
	}
	return rid
}

// leadingID parses the routine id out of a `{"id":N}` reply.
func leadingID(b []byte) int64 {
	rest, ok := bytes.CutPrefix(b, []byte(`{"id":`))
	if !ok {
		return 0
	}
	var id int64
	for _, ch := range rest {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + int64(ch-'0')
	}
	return id
}

// trailingNext parses the cursor out of the end of an events page,
// `..."next":N}\n`.
func trailingNext(tail []byte) (uint64, bool) {
	i := bytes.LastIndex(tail, []byte(`"next":`))
	if i < 0 {
		return 0, false
	}
	var n uint64
	digits := 0
	for _, ch := range tail[i+len(`"next":`):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + uint64(ch-'0')
		digits++
	}
	return n, digits > 0
}

// tally folds the caller's counts into the run.
func (c *caller) tally(r *run) {
	r.attempt(c.calls, c.bad)
	if c.firstBad != "" {
		r.check(false, "bad response: %s", c.firstBad)
	}
}

// serial runs ops through one caller, returning each op's latency.
func serial(c *caller, s *stream, ops []op) []int64 {
	lat := make([]int64, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		c.do(s, o)
		lat[i] = int64(time.Since(t0))
	}
	return lat
}

// parallel splits ops into contiguous shares over the callers, releases them
// together and waits for all; fn (optional) receives every op's latency.
func parallel(callers []*caller, s *stream, ops []op, fn func(c int, o op, ns int64, rid int64)) {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for ci, c := range callers {
		share := ops[ci*len(ops)/len(callers) : (ci+1)*len(ops)/len(callers)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			for _, o := range share {
				t0 := time.Now()
				rid := c.do(s, o)
				if fn != nil {
					fn(ci, o, int64(time.Since(t0)), rid)
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
}

func newCallers(h http.Handler, n int) []*caller {
	out := make([]*caller, n)
	for i := range out {
		out[i] = newCaller(h)
	}
	return out
}
