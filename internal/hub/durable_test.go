package hub

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/visibility"
)

// newDurableHub builds a hub journaling into dir over a fresh fleet.
func newDurableHub(t *testing.T, dir string) *manager.Manager {
	t.Helper()
	reg := testRegistry()
	m, err := New(Config{Model: visibility.EV, DefaultShort: 5 * time.Millisecond,
		FailureInterval: time.Hour, DataDir: dir}, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestHubRecoversAcrossRestart drives the whole single-home stack: a durable
// hub commits a routine, restarts from the same data dir, and serves the
// recovered results, committed states and event cursors.
func TestHubRecoversAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m := newDurableHub(t, dir)
	if st, err := StatusOf(m, Home); err != nil || !st.Durable {
		t.Fatalf("durable hub reports Durable=false (err %v)", err)
	}
	if _, err := m.Submit(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	_, cursor := gen(t, m).EventsSince(0)
	m.Close()

	m2 := newDurableHub(t, dir)
	defer m2.Close()
	results, err := m2.Results(Home)
	if err != nil || len(results) != 1 || results[0].Status != visibility.StatusCommitted {
		t.Fatalf("recovered results = %+v, %v", results, err)
	}
	// Committed states survive into the device view.
	devices, err := DevicesOf(m2, Home)
	if err != nil {
		t.Fatal(err)
	}
	var window, ac device.State
	for _, d := range devices {
		switch d.Info.ID {
		case "window":
			window = d.State
		case "ac":
			ac = d.State
		}
	}
	if window != device.Closed || ac != device.On {
		t.Fatalf("recovered device view: window=%s ac=%s", window, ac)
	}
	// A pre-restart cursor keeps working and stays monotonic.
	_, cursor2 := gen(t, m2).EventsSince(cursor)
	if cursor2 < cursor {
		t.Fatalf("event cursor went backwards: %d -> %d", cursor, cursor2)
	}
	if _, err := m2.Submit(Home, coolingRoutine()); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m2)
	tail, cursor3 := gen(t, m2).EventsSince(cursor2)
	if len(tail) == 0 || cursor3 <= cursor2 {
		t.Fatalf("post-restart events not visible past the old cursor (%d events, cursor %d)", len(tail), cursor3)
	}
}
