package manager

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// Tests for SubmitSpec's ownership transfer: the routine ParseSpec builds is
// handed to the controller as it is, and Manager.mutate's ErrClosed retry
// may resubmit it because a refused submission leaves it untouched.

func specFor(name string) []byte {
	return []byte(fmt.Sprintf(`{"routine_name":%q,"commands":[`+
		`{"device":"plug-0","action":"ON","duration_ms":10},`+
		`{"device":"plug-1","action":"OFF"}]}`, name))
}

// TestSubmitSpecHandsOverTheParsedRoutine: SubmitSpec's result holds the
// parsed routine itself, stamped with its ID — not a clone of it. A clone
// costs the routine and its command slice again (the cached device set is
// paid either way), so SubmitSpec must allocate exactly two objects fewer
// than ParseSpec followed by the public, cloning Submit.
func TestSubmitSpecHandsOverTheParsedRoutine(t *testing.T) {
	m := New(Config{Shards: 1, Clock: ClockVirtual, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if err := m.AddHome("spec", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	spec := specFor("spec")
	var routines [2]*routine.Routine
	for i := range routines {
		rid, err := m.SubmitSpec("spec", spec)
		if err != nil {
			t.Fatal(err)
		}
		res, ok, err := m.Result("spec", rid)
		if err != nil || !ok {
			t.Fatalf("result %d: ok %v, err %v", rid, ok, err)
		}
		if res.Routine.ID != rid || !res.Routine.Submitted.Equal(res.Submitted) {
			t.Fatalf("result %d holds a routine stamped %d at %v, want %d at %v",
				rid, res.Routine.ID, res.Routine.Submitted, rid, res.Submitted)
		}
		routines[i] = res.Routine
	}
	if routines[0] == routines[1] {
		t.Fatal("two SubmitSpec calls share one routine")
	}
	if raceEnabled {
		return // the race detector moves objects to the heap
	}
	const runs = 160 // a multiple of the export's 16-result chunk
	owned := testing.AllocsPerRun(runs, func() {
		if _, err := m.SubmitSpec("spec", spec); err != nil {
			t.Fatal(err)
		}
	})
	cloned := testing.AllocsPerRun(runs, func() {
		r, err := routine.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit("spec", r); err != nil {
			t.Fatal(err)
		}
	})
	if d := cloned - owned; math.Abs(d-2) > 0.05 {
		t.Fatalf("SubmitSpec allocates %.2f objects, ParseSpec + Submit %.2f: want exactly 2 fewer", owned, cloned)
	}
}

// TestSubmitSpecRacingCrashAcknowledgesEachRoutineOnce: a crasher keeps
// killing the home (Crash) and rebuilding it from its journal while
// SubmitSpec runs. A submit that meets a dead generation is answered
// ErrClosed unapplied and retried by Manager.mutate on the next one, with
// the same parsed routine. Every submit must be acknowledged, every
// acknowledged ID must be distinct, and the recovered history must hold
// exactly one result per acknowledged routine, at its ID.
func TestSubmitSpecRacingCrashAcknowledgesEachRoutineOnce(t *testing.T) {
	m := durableManager(t.TempDir())
	defer m.Close()
	if err := m.AddHome("race", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	slot, err := m.slotOf("race")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	crashes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; ; crashes++ {
			select {
			case <-stop:
				return
			default:
			}
			// Crash, then reanimate under the wake lock, the way the
			// manager's own wake path swaps generations.
			slot.wakeMu.Lock()
			home := slot.rt.Load()
			home.Crash()
			next, err := slot.rt.Build()
			if err != nil {
				slot.wakeMu.Unlock()
				t.Errorf("rebuild after crash: %v", err)
				return
			}
			slot.rt.Store(next)
			slot.wakeMu.Unlock()
		}
	}()

	const submits = 40
	acked := make(map[routine.ID]string, submits)
	for i := 0; i < submits; i++ {
		name := fmt.Sprintf("spec-%d", i)
		rid, err := m.SubmitSpec("race", specFor(name))
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("submit %d lost to the crash race: %v", i, err)
		}
		if prev, dup := acked[rid]; dup {
			close(stop)
			wg.Wait()
			t.Fatalf("ID %d acknowledged to both %s and %s", rid, prev, name)
		}
		acked[rid] = name
	}
	close(stop)
	wg.Wait()
	t.Logf("%d submits across %d crashes", submits, crashes)

	res, err := m.Results("race")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != submits {
		t.Fatalf("acknowledged %d submits, recovered %d results", submits, len(res))
	}
	for rid, name := range acked {
		if got := res[rid-1].Routine; got == nil || got.Name != name || got.ID != rid {
			t.Fatalf("result %d holds %+v, want %s", rid, got, name)
		}
	}
}
