package visibility

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// Tests for routine ownership at the controller boundary: Submit clones and
// never mutates the caller's routine; SubmitOwned keeps the routine it is
// handed and stamps it in place.

func conditionalRoutine() *routine.Routine {
	return routine.New("owned-or-not",
		routine.Command{Device: "plug-0", Target: device.On, Duration: time.Second},
		routine.Command{Device: "plug-1", Target: device.On, Duration: time.Second,
			Condition: &routine.Condition{Device: "plug-0", Equals: device.On}},
	)
}

func TestSubmitLeavesCallersRoutineUntouched(t *testing.T) {
	for _, model := range Models {
		t.Run(model.String(), func(t *testing.T) {
			s, _, ctrl := exportHarness(t, model, 2)
			r := conditionalRoutine()
			cond := r.Commands[1].Condition
			want := append([]routine.Command(nil), r.Commands...)
			wantCond := *cond

			id1, id2 := ctrl.Submit(r), ctrl.Submit(r)
			s.Run()
			export(ctrl) // finished results move into their export slots

			if r.ID != routine.None || !r.Submitted.IsZero() {
				t.Fatalf("Submit stamped the caller's routine: ID %d at %v", r.ID, r.Submitted)
			}
			if !reflect.DeepEqual(r.Commands, want) || r.Commands[1].Condition != cond || *cond != wantCond {
				t.Fatalf("Submit changed the caller's commands: %+v, want %+v", r.Commands, want)
			}
			res1, _ := ctrl.Result(id1)
			res2, _ := ctrl.Result(id2)
			if res1.Routine == r || res2.Routine == r || res1.Routine == res2.Routine {
				t.Fatalf("results hold routines %p and %p (caller's %p), want two distinct clones",
					res1.Routine, res2.Routine, r)
			}
			if res1.Routine.ID != id1 || res2.Routine.ID != id2 {
				t.Fatalf("clones stamped %d and %d, want %d and %d", res1.Routine.ID, res2.Routine.ID, id1, id2)
			}
			if res1.Routine.Commands[1].Condition == cond {
				t.Fatal("the clone shares the caller's condition")
			}
		})
	}
}

func TestSubmitOwnedStampsInPlace(t *testing.T) {
	for _, model := range Models {
		t.Run(model.String(), func(t *testing.T) {
			s, _, ctrl := exportHarness(t, model, 2)
			r := conditionalRoutine()
			id := ctrl.SubmitOwned(r)
			if r.ID != id || !r.Submitted.Equal(s.Now()) {
				t.Fatalf("owned routine stamped ID %d at %v, want %d at %v", r.ID, r.Submitted, id, s.Now())
			}
			s.Run()
			export(ctrl)
			res, ok := ctrl.Result(id)
			if !ok || res.Routine != r {
				t.Fatalf("result %d holds routine %p, want the submitted %p", id, res.Routine, r)
			}
			if res.Status != StatusCommitted {
				t.Fatalf("owned routine = %s (%s), want committed", res.Status, res.AbortReason)
			}
		})
	}
}

// TestEVRunBeyondInlineDeviceSlots: a run keeps up to four device slots
// inline and allocates the rest; a routine on six devices must run exactly
// as one on two does.
func TestEVRunBeyondInlineDeviceSlots(t *testing.T) {
	s, fleet, ctrl := exportHarness(t, EV, 6)
	wide := routine.New("wide")
	for i := 0; i < 6; i++ {
		wide.Commands = append(wide.Commands, routine.Command{
			Device: device.ID(fmt.Sprintf("plug-%d", i)), Target: device.On, Duration: time.Second})
	}
	narrow := routine.New("narrow",
		routine.Command{Device: "plug-5", Target: device.Off, Duration: time.Second},
		routine.Command{Device: "plug-0", Target: device.Off, Duration: time.Second})
	idWide := ctrl.SubmitOwned(wide)
	idNarrow := ctrl.SubmitOwned(narrow)
	s.Run()
	for _, c := range []struct {
		id       routine.ID
		executed int
	}{{idWide, 6}, {idNarrow, 2}} {
		res, _ := ctrl.Result(c.id)
		if res.Status != StatusCommitted || res.Executed != c.executed {
			t.Fatalf("routine %d = %s with %d executed, want committed with %d", c.id, res.Status, res.Executed, c.executed)
		}
	}
	for i, want := range []device.State{device.Off, device.On, device.On, device.On, device.On, device.Off} {
		if got, _ := fleet.Status(device.ID(fmt.Sprintf("plug-%d", i))); got != want {
			t.Fatalf("plug-%d = %s, want %s", i, got, want)
		}
	}
}
