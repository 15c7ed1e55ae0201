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

// stringPieces are the fragments generated strings are assembled from: every
// class of byte encoding/json treats specially, and the plain ones around
// them.
var stringPieces = []string{
	"", "plug-0", "Good Morning", "a", " ", "/", "'", "=", "~", "\x7f",
	`"`, `\`, `\"`, `\\u0041`, "<", ">", "&", "<script>&amp;</script>",
	"\x00", "\x01", "\x07", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x1f",
	"é", "ß", "日本語", "🙂", "\u2028", "\u2029", "\u2027", "\u202a", "\ufffd",
	"\xff", "\xc0\xaf", "\xe2\x80", "\xf0\x9f\x99", "\xed\xa0\x80", "\x80",
}

func genString(rng *rand.Rand) string {
	var s string
	for n := rng.Intn(6); n > 0; n-- {
		s += stringPieces[rng.Intn(len(stringPieces))]
	}
	return s
}

// testZones cover UTC, the local zone, whole- and half-hour offsets, an
// offset with seconds, and two offsets Time.MarshalJSON refuses (a day or
// more either way).
var testZones = []*time.Location{
	time.UTC, time.Local,
	time.FixedZone("IST", 5*3600+1800), time.FixedZone("PST", -8*3600),
	time.FixedZone("odd", 3600+30), time.FixedZone("", -1),
	time.FixedZone("far", 24*3600), time.FixedZone("farther", -100*3600),
}

func genTime(rng *rand.Rand) time.Time {
	var t time.Time
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		t = time.Date(2021, 4, 26, 9, 30, 0, 0, time.UTC) // whole seconds
	case 2:
		t = time.Unix(rng.Int63n(4e9), int64(rng.Intn(1000))*1e6) // milliseconds
	case 3:
		t = time.Unix(rng.Int63n(4e9), 1) // one nanosecond
	case 4:
		t = time.Unix(rng.Int63n(4e9), 999999999)
	case 5:
		t = time.Now() // carries a monotonic reading
	case 6:
		// Around the edges of what RFC 3339 can say: years -1, 0, 9999, 10000.
		t = time.Date([]int{-1, 0, 9999, 10000}[rng.Intn(4)], 12, 31, 23, 59, 59, rng.Intn(1e9), time.UTC)
	default:
		t = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9))
	}
	return t.In(testZones[rng.Intn(len(testZones))])
}

var edgeInts = []int64{0, 1, -1, 9, 10, 255, 256, -1000, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func genInt(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return rng.Int63n(1000)
	}
	return edgeInts[rng.Intn(len(edgeInts))]
}

// maybe zeroes a value about one time in three, so omitempty fields take
// both branches.
func maybe[T any](rng *rand.Rand, v T) T {
	if rng.Intn(3) == 0 {
		var zero T
		return zero
	}
	return v
}

func genHomeStatus(rng *rand.Rand) manager.HomeStatus {
	healths := []rt.HomeHealth{rt.HealthOK, rt.HealthDegraded, rt.HealthRestarting, rt.HealthQuarantined, rt.HealthFrozen, ""}
	st := manager.HomeStatus{
		ID:        manager.HomeID(genString(rng)),
		Shard:     int(genInt(rng)),
		Model:     genString(rng),
		Health:    healths[rng.Intn(len(healths))],
		Restarts:  maybe(rng, genInt(rng)),
		LastError: maybe(rng, genString(rng)),
		Devices:   int(genInt(rng)),
		Routines:  int(genInt(rng)),
		Pending:   int(genInt(rng)),
		Active:    int(genInt(rng)),
		Now:       genTime(rng),
		Created:   genTime(rng),
		FrozenAt:  maybe(rng, genTime(rng)),
		NextFire:  maybe(rng, genTime(rng)),
	}
	if rng.Intn(3) == 0 {
		st.LastPoison = &rt.PoisonRecord{
			Time:    genTime(rng),
			Home:    genString(rng),
			Message: genString(rng),
			Stack:   maybe(rng, "goroutine 7 [running]:\n\tsafehome/internal/runtime.(*HomeRuntime).loop(0xc000<>&)\n"+genString(rng)),
		}
	}
	return st
}

func genResult(rng *rand.Rand) visibility.Result {
	res := visibility.Result{
		ID:                 routine.ID(genInt(rng)),
		Status:             visibility.RoutineStatus(rng.Intn(5)), // one past the named statuses
		Submitted:          genTime(rng),
		Started:            maybe(rng, genTime(rng)),
		Finished:           maybe(rng, genTime(rng)),
		Executed:           int(genInt(rng)),
		Skipped:            int(maybe(rng, genInt(rng))),
		BestEffortFailures: int(maybe(rng, genInt(rng))),
		RolledBack:         int(maybe(rng, genInt(rng))),
		AbortReason:        maybe(rng, genString(rng)),
	}
	if rng.Intn(4) != 0 {
		res.Routine = &routine.Routine{Name: genString(rng)}
	}
	return res
}

func genEvent(rng *rand.Rand) visibility.Event {
	return visibility.Event{
		Time:    genTime(rng),
		Kind:    visibility.EventKind(rng.Intn(12)), // past the named kinds too
		Routine: routine.ID(maybe(rng, genInt(rng))),
		Device:  device.ID(maybe(rng, genString(rng))),
		State:   device.State(maybe(rng, genString(rng))),
		Detail:  maybe(rng, genString(rng)),
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
		checkEventsPage(t, events, uint64(len(events))+uint64(rng.Intn(3))*uint64(genInt(rng)&math.MaxInt32))
		checkID(t, routine.ID(genInt(rng)))
		checkError(t, []int{400, 404, 429, 503}[rng.Intn(4)], genString(rng))
	}
}

// TestHandEncodersEdgeValues pins the cases the generator only reaches by
// chance.
func TestHandEncodersEdgeValues(t *testing.T) {
	for _, s := range stringPieces {
		checkError(t, http.StatusBadRequest, s)
		checkError(t, http.StatusBadRequest, "x"+s+"y"+s)
	}
	for _, n := range edgeInts {
		checkID(t, routine.ID(n))
	}
	for _, loc := range testZones {
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
