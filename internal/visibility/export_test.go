package visibility

import (
	"fmt"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
)

// export cuts one export into fresh storage, as the runtime's publish does.
func export(c Controller) *StateExport {
	out := new(StateExport)
	c.ExportInto(out)
	return out
}

func exportHarness(t *testing.T, model Model, plugs int) (*sim.Sim, *device.Fleet, Controller) {
	t.Helper()
	reg := device.Plugs(plugs)
	fleet := device.NewFleet(reg)
	s := sim.NewAtEpoch()
	ctrl := New(NewSimEnv(s, fleet), fleet.Snapshot(), DefaultOptions(model))
	return s, fleet, ctrl
}

func benchRoutine(name string, plug int) *routine.Routine {
	return routine.New(name, routine.Command{
		Device:   device.ID(fmt.Sprintf("plug-%d", plug)),
		Target:   device.On,
		Duration: time.Minute,
	})
}

// assertExportMatches cross-checks an export against the controller's direct
// (loop-side) query methods.
func assertExportMatches(t *testing.T, ctrl Controller, ex *StateExport) {
	t.Helper()
	direct := ctrl.Results()
	if ex.Routines != len(direct) || ex.Results.Len() != len(direct) {
		t.Fatalf("export routines = %d / results len %d, controller has %d",
			ex.Routines, ex.Results.Len(), len(direct))
	}
	exported := ex.Results.AppendTo(nil)
	for i := range direct {
		if exported[i].ID != direct[i].ID || exported[i].Status != direct[i].Status ||
			exported[i].Executed != direct[i].Executed || exported[i].Finished != direct[i].Finished {
			t.Fatalf("result %d: export %+v != direct %+v", i, exported[i], direct[i])
		}
		if got := ex.Results.At(i); got.ID != direct[i].ID || got.Status != direct[i].Status {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, direct[i])
		}
	}
	if ex.Pending != ctrl.PendingCount() || ex.Active != ctrl.ActiveCount() {
		t.Fatalf("export counts pending=%d active=%d, controller %d/%d",
			ex.Pending, ex.Active, ctrl.PendingCount(), ctrl.ActiveCount())
	}
	states := ctrl.CommittedStates()
	got := ex.Committed.AppendTo(nil)
	if len(got) != len(states) {
		t.Fatalf("export committed has %d devices, controller %d (%v vs %v)", len(got), len(states), got, states)
	}
	for d, st := range states {
		if got[d] != st {
			t.Fatalf("committed[%s] = %q in export, %q in controller", d, got[d], st)
		}
		if one, ok := ex.Committed.Get(d); !ok || one != st {
			t.Fatalf("Committed.Get(%s) = %q,%v, want %q", d, one, ok, st)
		}
	}
}

func TestExportTracksControllerAcrossModels(t *testing.T) {
	for _, model := range Models {
		t.Run(model.String(), func(t *testing.T) {
			s, _, ctrl := exportHarness(t, model, 4)
			assertExportMatches(t, ctrl, export(ctrl))

			// Spread enough routines to cross a results-chunk boundary, with
			// exports cut at ragged points in between.
			for i := 0; i < 3*resultChunkSize/2; i++ {
				ctrl.Submit(benchRoutine(fmt.Sprintf("r-%d", i), i%4))
				s.Run()
				if i%17 == 0 {
					assertExportMatches(t, ctrl, export(ctrl))
				}
			}
			assertExportMatches(t, ctrl, export(ctrl))
		})
	}
}

func TestExportIsImmutableAfterLaterMutations(t *testing.T) {
	s, _, ctrl := exportHarness(t, EV, 4)
	ctrl.Submit(benchRoutine("first", 0))
	s.Run()
	old := export(ctrl)
	oldResults := old.Results.AppendTo(nil)
	oldStates := old.Committed.AppendTo(nil)

	for i := 0; i < 2*resultChunkSize; i++ {
		ctrl.Submit(benchRoutine(fmt.Sprintf("later-%d", i), 1+i%3))
		s.Run()
		export(ctrl)
	}

	if old.Results.Len() != 1 || old.Routines != 1 {
		t.Fatalf("old export grew: %d results", old.Results.Len())
	}
	again := old.Results.AppendTo(nil)
	for i := range oldResults {
		if again[i] != oldResults[i] {
			t.Fatalf("old export result %d changed: %+v -> %+v", i, oldResults[i], again[i])
		}
	}
	for d, st := range old.Committed.AppendTo(nil) {
		if oldStates[d] != st {
			t.Fatalf("old export committed[%s] changed: %q -> %q", d, oldStates[d], st)
		}
	}
}

func TestExportSharesFinalChunksAndSkipsOverlay(t *testing.T) {
	s, _, ctrl := exportHarness(t, EV, 4)
	for i := 0; i < 2*resultChunkSize; i++ {
		ctrl.Submit(benchRoutine(fmt.Sprintf("r-%d", i), i%4))
		s.Run()
	}
	a := export(ctrl)
	ctrl.Submit(benchRoutine("one-more", 0))
	s.Run()
	b := export(ctrl)

	// Finished outcomes are write-once: consecutive exports share the same
	// chunk pointers, nothing is re-copied.
	for ci := range a.Results.chunks {
		if a.Results.chunks[ci] != b.Results.chunks[ci] {
			t.Fatalf("final chunk %d was re-copied between exports", ci)
		}
	}
	// Nothing was open at either export, so neither carries an overlay.
	if len(a.Results.overlay) != 0 || len(b.Results.overlay) != 0 {
		t.Fatalf("overlays = %d/%d entries, want empty (no open routines)",
			len(a.Results.overlay), len(b.Results.overlay))
	}
}

func TestExportOverlayCarriesOpenRoutines(t *testing.T) {
	// A paced-style setup where nothing drains: submitted routines stay open,
	// so exports must carry them in the overlay and later exports must not
	// have their (still-unwritten) final slots observed.
	reg := device.Plugs(2)
	fleet := device.NewFleet(reg)
	s := sim.NewAtEpoch()
	ctrl := New(NewSimEnv(s, fleet), fleet.Snapshot(), DefaultOptions(EV))

	ctrl.Submit(benchRoutine("open-1", 0))
	ctrl.Submit(benchRoutine("open-2", 1))
	ex := export(ctrl)
	if len(ex.Results.overlay) != 2 {
		t.Fatalf("overlay has %d entries, want 2 open routines", len(ex.Results.overlay))
	}
	for i := 0; i < ex.Results.Len(); i++ {
		if res := ex.Results.At(i); res.Status.Finished() {
			t.Fatalf("open routine %d reads as finished: %+v", i+1, res)
		}
	}
	// Drain and re-export: the overlay empties, the slots become final.
	s.Run()
	ex2 := export(ctrl)
	if len(ex2.Results.overlay) != 0 {
		t.Fatalf("overlay still has %d entries after drain", len(ex2.Results.overlay))
	}
	assertExportMatches(t, ctrl, ex2)
	// The old export still reports them open (immutability).
	if res := ex.Results.At(0); res.Status.Finished() {
		t.Fatalf("old export's routine 1 mutated to %v", res.Status)
	}
}

func TestExportUnchangedCommittedIsShared(t *testing.T) {
	_, _, ctrl := exportHarness(t, EV, 4)
	a := export(ctrl)
	b := export(ctrl)
	if len(a.Committed.chunks) > 0 && a.Committed.chunks[0] != b.Committed.chunks[0] {
		t.Fatal("committed chunk re-copied with no state change in between")
	}
	if a.Committed.Len() != 4 {
		t.Fatalf("initial committed export has %d devices, want 4", a.Committed.Len())
	}
}
