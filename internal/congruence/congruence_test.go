package congruence

import (
	"testing"
	"testing/quick"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/stats"
)

func rw(id routine.ID, pairs ...any) Writes {
	w := Writes{ID: id}
	for i := 0; i < len(pairs); i += 2 {
		w.Final = append(w.Final, Write{Device: pairs[i].(device.ID), State: pairs[i+1].(device.State)})
	}
	return w
}

func TestUntouchedDevicesMustKeepInitialState(t *testing.T) {
	initial := map[device.ID]device.State{"a": device.Off, "b": device.Off}
	final := map[device.ID]device.State{"a": device.Off, "b": device.On}
	res := Check(initial, nil, final)
	if res.Congruent {
		t.Fatal("device b changed with no writers; should be incongruent")
	}
	if len(res.BadDevices) != 1 || res.BadDevices[0] != "b" {
		t.Fatalf("BadDevices = %v", res.BadDevices)
	}
	// Same final as initial is congruent.
	res = Check(initial, nil, initial)
	if !res.Congruent {
		t.Fatal("unchanged home should be congruent")
	}
}

func TestSingleRoutineEndState(t *testing.T) {
	initial := map[device.ID]device.State{"light": device.Off}
	writes := []Writes{rw(1, device.ID("light"), device.On)}
	if !Check(initial, writes, map[device.ID]device.State{"light": device.On}).Congruent {
		t.Fatal("end state matching the single routine should be congruent")
	}
	res := Check(initial, writes, map[device.ID]device.State{"light": device.Off})
	if res.Congruent {
		t.Fatal("light OFF cannot be explained once routine 1 committed")
	}
}

func TestAllOnAllOffSerialEquivalence(t *testing.T) {
	// Fig 1's workload: R1 turns all lights ON, R2 turns all OFF. A serial
	// order ends either all-ON or all-OFF; anything mixed is incongruent.
	n := 4
	initial := make(map[device.ID]device.State)
	var devs []device.ID
	for i := 0; i < n; i++ {
		d := device.ID(rune('a' + i))
		devs = append(devs, d)
		initial[d] = device.Off
	}
	r1 := Writes{ID: 1}
	r2 := Writes{ID: 2}
	for _, d := range devs {
		r1.Final = append(r1.Final, Write{Device: d, State: device.On})
		r2.Final = append(r2.Final, Write{Device: d, State: device.Off})
	}
	allOn := map[device.ID]device.State{}
	allOff := map[device.ID]device.State{}
	mixed := map[device.ID]device.State{}
	for i, d := range devs {
		allOn[d] = device.On
		allOff[d] = device.Off
		if i%2 == 0 {
			mixed[d] = device.On
		} else {
			mixed[d] = device.Off
		}
	}
	if !Check(initial, []Writes{r1, r2}, allOn).Congruent {
		t.Fatal("all-ON should be congruent (order R2;R1)")
	}
	if !Check(initial, []Writes{r1, r2}, allOff).Congruent {
		t.Fatal("all-OFF should be congruent (order R1;R2)")
	}
	if Check(initial, []Writes{r1, r2}, mixed).Congruent {
		t.Fatal("interleaved ON/OFF end state must be incongruent")
	}
}

func TestWitnessProducesFinalState(t *testing.T) {
	r1 := routine.New("r1",
		routine.Command{Device: "a", Target: device.On},
		routine.Command{Device: "b", Target: device.On})
	r1.ID = 1
	r2 := routine.New("r2",
		routine.Command{Device: "b", Target: device.Off},
		routine.Command{Device: "c", Target: device.On})
	r2.ID = 2
	initial := map[device.ID]device.State{"a": device.Off, "b": device.Off, "c": device.Off}
	final := map[device.ID]device.State{"a": device.On, "b": device.Off, "c": device.On}
	res := Check(initial, FromRoutines([]*routine.Routine{r1, r2}), final)
	if !res.Congruent {
		t.Fatal("expected congruent")
	}
	replay := SerialEndState(initial, []*routine.Routine{r1, r2}, res.Witness)
	for d, want := range final {
		if replay[d] != want {
			t.Fatalf("witness %v does not reproduce final state: %s=%v want %v", res.Witness, d, replay[d], want)
		}
	}
}

func TestConflictingLastWriterChoices(t *testing.T) {
	// R1: x=ON, y=OFF. R2: x=OFF, y=ON.
	// Final x=ON, y=ON would require R1 after R2 (for x) and R2 after R1
	// (for y) — a cycle, hence incongruent.
	writes := []Writes{
		rw(1, device.ID("x"), device.On, device.ID("y"), device.Off),
		rw(2, device.ID("x"), device.Off, device.ID("y"), device.On),
	}
	initial := map[device.ID]device.State{"x": device.Off, "y": device.Off}
	bad := map[device.ID]device.State{"x": device.On, "y": device.On}
	if Check(initial, writes, bad).Congruent {
		t.Fatal("cyclic last-writer requirement must be incongruent")
	}
	good := map[device.ID]device.State{"x": device.Off, "y": device.On}
	if !Check(initial, writes, good).Congruent {
		t.Fatal("R1;R2 order should explain x=OFF,y=ON")
	}
}

func TestThreeRoutinesChain(t *testing.T) {
	// R1 writes a; R2 writes a and b; R3 writes b.
	writes := []Writes{
		rw(1, device.ID("a"), device.State("1")),
		rw(2, device.ID("a"), device.State("2"), device.ID("b"), device.State("2")),
		rw(3, device.ID("b"), device.State("3")),
	}
	initial := map[device.ID]device.State{"a": "0", "b": "0"}
	// a=1 requires R1 after R2; b=2 requires R2 after R3: order R3,R2,R1 works.
	ok := map[device.ID]device.State{"a": "1", "b": "2"}
	res := Check(initial, writes, ok)
	if !res.Congruent {
		t.Fatalf("expected congruent, got %+v", res)
	}
	// a=2 requires R2 after R1, b=3 requires R3 after R2 → order R1,R2,R3; fine.
	ok2 := map[device.ID]device.State{"a": "2", "b": "3"}
	if !Check(initial, writes, ok2).Congruent {
		t.Fatal("expected congruent for natural order")
	}
	// a=1 (R1 last on a) and b=3 (R3 last on b) → R2 before R1 and before R3; fine.
	ok3 := map[device.ID]device.State{"a": "1", "b": "3"}
	if !Check(initial, writes, ok3).Congruent {
		t.Fatal("expected congruent")
	}
	// A state value no routine writes is incongruent.
	bad := map[device.ID]device.State{"a": "9", "b": "3"}
	if Check(initial, writes, bad).Congruent {
		t.Fatal("unwritable value must be incongruent")
	}
}

func TestFromRoutineTakesLastWrite(t *testing.T) {
	r := routine.New("coffee",
		routine.Command{Device: "coffee", Target: device.On},
		routine.Command{Device: "coffee", Target: device.Off})
	r.ID = 7
	w := FromRoutine(r)
	if len(w.Final) != 1 || w.Final[0] != (Write{Device: "coffee", State: device.Off}) {
		t.Fatalf("final writes = %v, want exactly coffee=OFF", w.Final)
	}
}

// Property: the end state of an actual serial execution is always judged
// congruent, for random routines over a small device universe.
func TestSerialExecutionAlwaysCongruentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		devs := []device.ID{"d0", "d1", "d2", "d3", "d4"}
		states := []device.State{"A", "B", "C"}
		initial := map[device.ID]device.State{}
		for _, d := range devs {
			initial[d] = "INIT"
		}
		nRoutines := rng.Intn(5) + 1
		var rs []*routine.Routine
		var ids []routine.ID
		for i := 0; i < nRoutines; i++ {
			r := &routine.Routine{ID: routine.ID(i + 1), Name: "r"}
			nCmds := rng.Intn(4) + 1
			for c := 0; c < nCmds; c++ {
				r.Commands = append(r.Commands, routine.Command{
					Device: devs[rng.Intn(len(devs))],
					Target: states[rng.Intn(len(states))],
				})
			}
			rs = append(rs, r)
			ids = append(ids, r.ID)
		}
		// Random serial order.
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		final := SerialEndState(initial, rs, ids)
		return Check(initial, FromRoutines(rs), final).Congruent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping one written device to a value that no routine's last
// write produces makes the state incongruent.
func TestUnexplainableValueIncongruentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		devs := []device.ID{"d0", "d1", "d2"}
		initial := map[device.ID]device.State{}
		for _, d := range devs {
			initial[d] = "INIT"
		}
		var rs []*routine.Routine
		var ids []routine.ID
		for i := 0; i < 3; i++ {
			r := &routine.Routine{ID: routine.ID(i + 1), Name: "r"}
			r.Commands = append(r.Commands, routine.Command{
				Device: devs[rng.Intn(len(devs))],
				Target: device.State([]string{"A", "B"}[rng.Intn(2)]),
			})
			rs = append(rs, r)
			ids = append(ids, r.ID)
		}
		final := SerialEndState(initial, rs, ids)
		// Poison one device that some routine wrote.
		target := rs[rng.Intn(len(rs))].Commands[0].Device
		final[target] = "IMPOSSIBLE"
		return !Check(initial, FromRoutines(rs), final).Congruent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
