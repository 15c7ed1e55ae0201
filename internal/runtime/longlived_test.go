package runtime

import (
	"runtime"
	"testing"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// footprinter is implemented by the EV controller (visibility's
// evController.Footprint).
type footprinter interface {
	Footprint() (graphNodes, runSlots int)
}

// TestLongLivedHomeKeepsOnlyOpenWork is the tier-1 guard for a long-lived
// home: one memory-only EV home, built as the manager builds one, takes
// 20k sequential submissions through the owned path the HTTP API uses.
// Every routine finishes before the next arrives, so the controller is
// quiescent after each one and seals: its precedence graph and run slots
// must never hold more than the routine in hand, and what stays in memory
// per routine — its outcome record and its routine — must fit in 600 B.
// Before sealing, the graph's slot and edge lists and the per-ID arrays
// made it about 715 B.
func TestLongLivedHomeKeepsOnlyOpenWork(t *testing.T) {
	home, err := NewSim(Config{ID: "long-lived", Model: visibility.EV, Clock: ClockVirtual}, device.Plugs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	spec := []byte(`{"routine_name":"r","commands":[` +
		`{"device":"plug-0","action":"ON","duration_ms":10},` +
		`{"device":"plug-1","action":"OFF"},` +
		`{"device":"plug-2","action":"ON","duration_ms":5}]}`)
	submit := func() {
		r, err := routine.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := home.SubmitOwned(r); err != nil {
			t.Fatal(err)
		}
	}
	footprint := func() (int, int) {
		resume, err := home.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		defer resume()
		return home.ctrl.(footprinter).Footprint()
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const warm, routines = 1000, 20000
	for i := 0; i < warm; i++ {
		submit()
	}
	before := heap()
	for i := 1; i <= routines; i++ {
		submit()
		// Under the virtual clock the routine has finished when Submit
		// returns: every submission ends at a quiescent point.
		if i%97 == 0 || i == routines {
			if nodes, runs := footprint(); nodes > 1 || runs > 1 {
				t.Fatalf("after %d routines: the graph holds %d nodes and the controller %d run slots; want ≤ 1 each", warm+i, nodes, runs)
			}
		}
	}
	after := heap()
	if c := home.Counts(); c.Routines != warm+routines || c.Pending != 0 {
		t.Fatalf("counts %+v, want %d routines, none pending", c, warm+routines)
	}
	perRoutine := float64(int64(after)-int64(before)) / routines
	t.Logf("retained heap: %.0f B per routine", perRoutine)
	if raceEnabled {
		return // the race detector's shadow allocations inflate the heap
	}
	if perRoutine > 600 {
		t.Fatalf("the home retains %.0f B per routine, want ≤ 600", perRoutine)
	}
}
