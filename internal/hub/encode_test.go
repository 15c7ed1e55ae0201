package hub

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"safehome/internal/device"
	jt "safehome/internal/jsonenc/jsonenctest"
	"safehome/internal/manager"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// The differential tests of the hand encoders: whatever value a hot reply
// carries, the bytes (and status and headers) must be what the reflective
// oracleWriteJSON sends for the same value — including sending no body for a
// value encoding/json refuses.

// sameResponse fails the test unless the two recorded responses are
// identical in status, headers and body.
func sameResponse(t testing.TB, what string, old, got *httptest.ResponseRecorder) {
	t.Helper()
	if old.Code != got.Code {
		t.Errorf("%s: status %d, oracle %d", what, got.Code, old.Code)
	}
	for _, h := range []string{"Content-Type", "Retry-After", "Allow", "Location"} {
		if o, g := old.Header().Values(h), got.Header().Values(h); len(o) != len(g) || (len(o) > 0 && o[0] != g[0]) {
			t.Errorf("%s: header %s = %q, oracle %q", what, h, g, o)
		}
	}
	if !bytes.Equal(old.Body.Bytes(), got.Body.Bytes()) {
		t.Errorf("%s: body differs\n   got %q\noracle %q", what, got.Body.Bytes(), old.Body.Bytes())
	}
}

// checkHomeStatus, checkResult, checkEventsPage, checkID and checkError each
// send one value through the hand encoder and through the oracle.

func checkHomeStatus(t testing.TB, st manager.HomeStatus) {
	t.Helper()
	old, got := httptest.NewRecorder(), httptest.NewRecorder()
	oracleWriteJSON(old, http.StatusOK, st)
	writeHomeStatus(got, http.StatusOK, &st)
	sameResponse(t, "HomeStatus", old, got)
}

func checkResult(t testing.TB, res visibility.Result) {
	t.Helper()
	old, got := httptest.NewRecorder(), httptest.NewRecorder()
	oracleWriteJSON(old, http.StatusOK, resultJSON(&res))
	v := resultJSON(&res)
	writeResult(got, http.StatusOK, &v)
	sameResponse(t, "result", old, got)
}

func checkEventsPage(t testing.TB, events []visibility.Event, next uint64) {
	t.Helper()
	old, got := httptest.NewRecorder(), httptest.NewRecorder()
	oracleWriteJSON(old, http.StatusOK, oracleEventsPage(events, next))
	buf := newBody()
	buf.openEvents()
	for i := range events {
		buf.pageEvent(next-uint64(len(events))+uint64(i), &events[i])
	}
	buf.closeEvents(next)
	buf.send(got, http.StatusOK)
	sameResponse(t, "events page", old, got)
}

func checkID(t testing.TB, id routine.ID) {
	t.Helper()
	old, got := httptest.NewRecorder(), httptest.NewRecorder()
	oracleWriteJSON(old, http.StatusAccepted, map[string]any{"id": id})
	writeID(got, http.StatusAccepted, id)
	sameResponse(t, "id reply", old, got)
}

func checkError(t testing.TB, status int, msg string) {
	t.Helper()
	old, got := httptest.NewRecorder(), httptest.NewRecorder()
	oracleWriteError(old, status, errors.New(msg))
	writeError(got, status, errors.New(msg))
	sameResponse(t, "error reply", old, got)
}

// --- generators -----------------------------------------------------------------

// Strings, times and integers are drawn from jsonenctest's edge tables.

func genHomeStatus(rng *rand.Rand) manager.HomeStatus {
	healths := []rt.HomeHealth{rt.HealthOK, rt.HealthDegraded, rt.HealthRestarting, rt.HealthQuarantined, rt.HealthFrozen, ""}
	st := manager.HomeStatus{
		ID:        manager.HomeID(jt.String(rng)),
		Shard:     int(jt.Int(rng)),
		Model:     jt.String(rng),
		Health:    healths[rng.Intn(len(healths))],
		Restarts:  jt.Maybe(rng, jt.Int(rng)),
		LastError: jt.Maybe(rng, jt.String(rng)),
		Devices:   int(jt.Int(rng)),
		Routines:  int(jt.Int(rng)),
		Pending:   int(jt.Int(rng)),
		Active:    int(jt.Int(rng)),
		Now:       jt.Time(rng),
		Created:   jt.Time(rng),
		FrozenAt:  jt.Maybe(rng, jt.Time(rng)),
		NextFire:  jt.Maybe(rng, jt.Time(rng)),
	}
	if rng.Intn(3) == 0 {
		st.LastPoison = &rt.PoisonRecord{
			Time:    jt.Time(rng),
			Home:    jt.String(rng),
			Message: jt.String(rng),
			Stack:   jt.Maybe(rng, "goroutine 7 [running]:\n\tsafehome/internal/runtime.(*HomeRuntime).loop(0xc000<>&)\n"+jt.String(rng)),
		}
	}
	return st
}

func genResult(rng *rand.Rand) visibility.Result {
	res := visibility.Result{
		ID:                 routine.ID(jt.Int(rng)),
		Status:             visibility.RoutineStatus(rng.Intn(5)), // one past the named statuses
		Submitted:          jt.Time(rng),
		Started:            jt.Maybe(rng, jt.Time(rng)),
		Finished:           jt.Maybe(rng, jt.Time(rng)),
		Executed:           int(jt.Int(rng)),
		Skipped:            int(jt.Maybe(rng, jt.Int(rng))),
		BestEffortFailures: int(jt.Maybe(rng, jt.Int(rng))),
		RolledBack:         int(jt.Maybe(rng, jt.Int(rng))),
		AbortReason:        jt.Maybe(rng, jt.String(rng)),
	}
	if rng.Intn(4) != 0 {
		res.Routine = &routine.Routine{Name: jt.String(rng)}
	}
	return res
}

func genEvent(rng *rand.Rand) visibility.Event {
	return visibility.Event{
		Time:    jt.Time(rng),
		Kind:    visibility.EventKind(rng.Intn(12)), // past the named kinds too
		Routine: routine.ID(jt.Maybe(rng, jt.Int(rng))),
		Device:  device.ID(jt.Maybe(rng, jt.String(rng))),
		State:   device.State(jt.Maybe(rng, jt.String(rng))),
		Detail:  jt.Maybe(rng, jt.String(rng)),
	}
}

// --- tests ----------------------------------------------------------------------

func TestHandEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20211))
	for i := 0; i < 4000 && !t.Failed(); i++ {
		checkHomeStatus(t, genHomeStatus(rng))
		checkResult(t, genResult(rng))
		events := make([]visibility.Event, rng.Intn(5))
		for j := range events {
			events[j] = genEvent(rng)
		}
		// next == len(events) puts sequence 0 — omitted by omitempty — first.
		checkEventsPage(t, events, uint64(len(events))+uint64(rng.Intn(3))*uint64(jt.Int(rng)&math.MaxInt32))
		checkID(t, routine.ID(jt.Int(rng)))
		checkError(t, []int{400, 404, 429, 503}[rng.Intn(4)], jt.String(rng))
	}
}

// TestHandEncodersEdgeValues pins the cases the generator only reaches by
// chance.
func TestHandEncodersEdgeValues(t *testing.T) {
	for _, s := range jt.StringPieces {
		checkError(t, http.StatusBadRequest, s)
		checkError(t, http.StatusBadRequest, "x"+s+"y"+s)
	}
	for _, n := range jt.Ints {
		checkID(t, routine.ID(n))
	}
	for _, loc := range jt.Zones {
		for _, year := range []int{-1, 0, 1, 2021, 9999, 10000} {
			st := manager.HomeStatus{Now: time.Date(year, 1, 2, 3, 4, 5, 60, loc)}
			checkHomeStatus(t, st)
		}
	}
	checkHomeStatus(t, manager.HomeStatus{}) // every time zero, none omitted
	checkResult(t, visibility.Result{})
	checkEventsPage(t, nil, 0)
	checkEventsPage(t, nil, math.MaxUint64)
	checkEventsPage(t, []visibility.Event{{}}, 1)
	checkEventsPage(t, []visibility.Event{{}, {}}, math.MaxUint64)
}

// FuzzAppendJSON drives every hand encoder with fuzzer-chosen strings,
// integers and times against the reflective oracle.
func FuzzAppendJSON(f *testing.F) {
	f.Add("home-1", "ok", int64(3), int64(1619429400), int64(0), 0, uint8(0))
	f.Add(`a"b\c<d>&e`, "\x00\x1f\x7f\xff\u2028", int64(math.MinInt64), int64(-62135596800), int64(999999999), 19800, uint8(0xff))
	f.Add("\xe2\x80", "日本語\u2029", int64(math.MaxInt64), int64(253402300800), int64(1), -86400, uint8(0x55))
	f.Fuzz(func(t *testing.T, s1, s2 string, n, sec, nsec int64, zone int, flags uint8) {
		when := time.Unix(sec, nsec).In(time.FixedZone(s2, zone))
		on := func(bit uint8) bool { return flags&(1<<bit) != 0 }
		opt := func(bit uint8, tm time.Time) time.Time {
			if on(bit) {
				return tm
			}
			return time.Time{}
		}
		st := manager.HomeStatus{
			ID: manager.HomeID(s1), Shard: int(n), Model: s2, Health: rt.HomeHealth(s1),
			Restarts: n, LastError: s2, Devices: int(n), Routines: int(-n), Pending: int(n >> 7), Active: int(n >> 40),
			Now: when, Created: opt(0, when), FrozenAt: opt(1, when.UTC()), NextFire: opt(2, when.Add(time.Duration(n))),
		}
		if on(3) {
			st.LastPoison = &rt.PoisonRecord{Time: when, Home: s1, Message: s2, Stack: s1 + s2}
		}
		checkHomeStatus(t, st)
		res := visibility.Result{
			ID: routine.ID(n), Status: visibility.RoutineStatus(flags % 5), Routine: &routine.Routine{Name: s1},
			Submitted: when, Started: opt(4, when), Finished: opt(5, when.Add(time.Duration(n))),
			Executed: int(n), Skipped: int(n >> 3), BestEffortFailures: int(n >> 9), RolledBack: int(-n), AbortReason: s2,
		}
		checkResult(t, res)
		ev := visibility.Event{Time: when, Kind: visibility.EventKind(flags % 12), Routine: routine.ID(n), Device: device.ID(s1), State: device.State(s2), Detail: s1}
		checkEventsPage(t, []visibility.Event{ev, {Time: opt(6, when), Detail: s2}}, uint64(n))
		checkID(t, routine.ID(n))
		checkError(t, http.StatusServiceUnavailable, s1+s2)
	})
}
