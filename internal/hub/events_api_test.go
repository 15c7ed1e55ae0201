package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

type eventsPageJSON struct {
	Events []struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
	} `json:"events"`
	Next uint64 `json:"next"`
}

func getPage(t *testing.T, url string) eventsPageJSON {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var page eventsPageJSON
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestHubEventsSinceCursor(t *testing.T) {
	m, _ := newTestHub(t)
	srv := httptest.NewServer(HomeHandler(m, Home))
	defer srv.Close()

	if _, err := m.Submit(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)

	first := getPage(t, srv.URL+"/api/events?since=0")
	if len(first.Events) == 0 || first.Next == 0 {
		t.Fatalf("first page = %+v, want events and a cursor", first)
	}
	for i, e := range first.Events {
		if i > 0 && e.Seq != first.Events[i-1].Seq+1 {
			t.Fatalf("event seqs not consecutive: %+v", first.Events)
		}
	}
	if last := first.Events[len(first.Events)-1]; last.Seq+1 != first.Next {
		t.Fatalf("next cursor %d does not follow last seq %d", first.Next, last.Seq)
	}

	// Nothing new: the tail poll is empty and the cursor stable.
	again := getPage(t, fmt.Sprintf("%s/api/events?since=%d", srv.URL, first.Next))
	if len(again.Events) != 0 || again.Next != first.Next {
		t.Fatalf("empty tail poll = %+v", again)
	}

	// New activity: the poller sees only the tail.
	if _, err := m.Submit(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	tail := getPage(t, fmt.Sprintf("%s/api/events?since=%d", srv.URL, first.Next))
	if len(tail.Events) == 0 {
		t.Fatal("tail poll after new submit returned nothing")
	}
	if tail.Events[0].Seq < first.Next {
		t.Fatalf("tail re-delivered seq %d (cursor was %d)", tail.Events[0].Seq, first.Next)
	}

	// A bad cursor is a 400; the un-cursored endpoint still returns the
	// plain array shape.
	if resp, err := http.Get(srv.URL + "/api/events?since=nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad since = %d, want 400", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plain []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatalf("plain /api/events is no longer an array: %v", err)
	}
}

func TestManagerEventsSinceCursor(t *testing.T) {
	m := manager.New(manager.Config{Shards: 2, EventLog: 64,
		Home: manager.HomeConfig{Model: visibility.EV}})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(ManagerHandler(m, 2))
	defer srv.Close()

	if err := m.AddHome("apt-1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"routine_name":"lights","commands":[{"device":"plug-0","action":"ON"}]}`)
	if _, err := m.SubmitSpec("apt-1", spec); err != nil {
		t.Fatal(err)
	}

	page := getPage(t, srv.URL+"/homes/apt-1/events?since=0")
	if len(page.Events) == 0 {
		t.Fatal("no events for a home with an event log")
	}
	tail := getPage(t, fmt.Sprintf("%s/homes/apt-1/events?since=%d", srv.URL, page.Next))
	if len(tail.Events) != 0 {
		t.Fatalf("tail poll re-delivered %d events", len(tail.Events))
	}

	// Unknown home: 404. Events on a log-less manager: empty but valid.
	if resp, err := http.Get(srv.URL + "/homes/ghost/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown home events = %d, want 404", resp.StatusCode)
		}
	}
}

func TestManagerWithoutEventLogServesEmptyEvents(t *testing.T) {
	m := manager.New(manager.Config{Shards: 1, Home: manager.HomeConfig{Model: visibility.EV}})
	t.Cleanup(m.Close)
	if err := m.AddHome("apt-1", device.Plugs(1).All()...); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"routine_name":"lights","commands":[{"device":"plug-0","action":"ON"}]}`)
	if _, err := m.SubmitSpec("apt-1", spec); err != nil {
		t.Fatal(err)
	}
	ev, next, err := m.Events("apt-1", 0)
	if err != nil || len(ev) != 0 || next != 1 {
		t.Fatalf("Events on a log-less manager = %d events, next %d, err %v; want empty", len(ev), next, err)
	}
}
