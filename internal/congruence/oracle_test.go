package congruence

// Differential test: the quadratic Check this package shipped before the
// worklist rewrite, kept verbatim (modulo the Writes representation) as the
// reference, against Check on generated inputs of all three kinds — end
// states of real serial executions, end states with an unexplainable device,
// and end states whose required last writers form a cycle. Congruent,
// Witness and BadDevices must all be equal: the worklist makes the same
// greedy choice, only faster.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/stats"
)

// referenceCheck is the old O(routines² × writes) Check: rescan every
// remaining routine for every placement.
func referenceCheck(initial map[device.ID]device.State, committed []Writes, final map[device.ID]device.State) Result {
	res := Result{}

	// writers[d] = routines that write d.
	writers := make(map[device.ID][]int)
	for i, w := range committed {
		for _, wr := range w.Final {
			writers[wr.Device] = append(writers[wr.Device], i)
		}
	}
	finalOf := func(i int, d device.ID) device.State {
		for _, wr := range committed[i].Final {
			if wr.Device == d {
				return wr.State
			}
		}
		return device.StateUnknown
	}

	// Devices that still need a "last writer" matching the final state.
	uncovered := make(map[device.ID]bool)
	for _, d := range device.SortedIDs(final) {
		want := final[d]
		ws := writers[d]
		if len(ws) == 0 {
			if init, ok := initial[d]; ok && init != want {
				res.BadDevices = append(res.BadDevices, d)
			}
			continue
		}
		explainable := false
		for _, i := range ws {
			if finalOf(i, d) == want {
				explainable = true
				break
			}
		}
		if !explainable {
			res.BadDevices = append(res.BadDevices, d)
			continue
		}
		uncovered[d] = true
	}
	if len(res.BadDevices) > 0 {
		return res
	}

	// Build the serial order backwards: repeatedly place (latest first) any
	// remaining routine whose writes to still-uncovered devices all match the
	// final state. Prefer the largest routine ID so the witness stays close
	// to submission order.
	remaining := make([]int, len(committed))
	for i := range committed {
		remaining[i] = i
	}
	reversed := make([]routine.ID, 0, len(committed))
	for len(remaining) > 0 {
		pick := -1
		for idx, i := range remaining {
			ok := true
			for _, wr := range committed[i].Final {
				if uncovered[wr.Device] && final[wr.Device] != wr.State {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if pick == -1 || committed[i].ID > committed[remaining[pick]].ID {
				pick = idx
			}
		}
		if pick == -1 {
			// No routine can be the latest among the rest: the required last
			// writers contradict each other.
			for d := range uncovered {
				res.BadDevices = append(res.BadDevices, d)
			}
			sort.Slice(res.BadDevices, func(i, j int) bool { return res.BadDevices[i] < res.BadDevices[j] })
			return res
		}
		chosen := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		reversed = append(reversed, committed[chosen].ID)
		for _, wr := range committed[chosen].Final {
			delete(uncovered, wr.Device)
		}
	}

	res.Congruent = true
	res.Witness = make([]routine.ID, 0, len(reversed))
	for i := len(reversed) - 1; i >= 0; i-- {
		res.Witness = append(res.Witness, reversed[i])
	}
	return res
}

// genCase draws random routines over a small device universe and an end
// state of the requested kind.
func genCase(rng *stats.RNG, kind int) (initial map[device.ID]device.State, rs []*routine.Routine, final map[device.ID]device.State) {
	nDevs := 2 + rng.Intn(7)
	devs := make([]device.ID, nDevs)
	initial = make(map[device.ID]device.State, nDevs)
	for i := range devs {
		devs[i] = device.ID(fmt.Sprintf("d%d", i))
		initial[devs[i]] = "INIT"
	}
	states := []device.State{"A", "B", "C"}
	nRoutines := rng.Intn(24) // 0 routines is a case too
	ids := make([]routine.ID, nRoutines)
	for i := range ids {
		// Ascending IDs — with the odd duplicate among the serial executions,
		// so the ID tie-break (lower index first) is exercised as well. (A
		// duplicated ID shadows a routine in SerialEndState, so a few of
		// those end states are not congruent after all; they still must match
		// the reference.)
		ids[i] = routine.ID(i + 1)
		if kind == 0 && i > 0 && rng.Intn(10) == 0 {
			ids[i] = ids[i-1]
		}
		r := &routine.Routine{ID: ids[i], Name: "r"}
		for c, n := 0, 1+rng.Intn(4); c < n; c++ {
			r.Commands = append(r.Commands, routine.Command{
				Device: devs[rng.Intn(nDevs)],
				Target: states[rng.Intn(len(states))],
			})
		}
		rs = append(rs, r)
	}

	switch kind {
	case 0: // a real serial execution, in a random order
		serial := append([]routine.ID(nil), ids...)
		rng.Shuffle(len(serial), func(i, j int) { serial[i], serial[j] = serial[j], serial[i] })
		final = SerialEndState(initial, rs, serial)
	case 1: // one device ends in a state nobody writes (or drifts unwritten)
		final = SerialEndState(initial, rs, ids)
		final[devs[rng.Intn(nDevs)]] = "IMPOSSIBLE"
	default: // two routines that each must be the last writer of a device the other spoils
		x := rng.Intn(nDevs)
		y := (x + 1 + rng.Intn(nDevs-1)) % nDevs
		for k, writes := range [][2]device.State{{"P", "not-Q"}, {"not-P", "Q"}} {
			knot := &routine.Routine{ID: routine.ID(nRoutines + 1 + k), Name: "knot", Commands: []routine.Command{
				{Device: devs[x], Target: writes[0]},
				{Device: devs[y], Target: writes[1]},
			}}
			// Anywhere in the submission order.
			at := rng.Intn(len(rs) + 1)
			rs = append(rs[:at], append([]*routine.Routine{knot}, rs[at:]...)...)
			ids = append(ids, knot.ID)
		}
		final = SerialEndState(initial, rs, ids)
		final[devs[x]], final[devs[y]] = "P", "Q"
	}
	// Sometimes the observer only saw part of the home.
	if kind == 0 && rng.Intn(5) == 0 {
		delete(final, devs[rng.Intn(nDevs)])
	}
	return initial, rs, final
}

func TestCheckMatchesQuadraticReference(t *testing.T) {
	const casesPerKind = 700 // 2100 cases in all
	var congruent [3]int
	for kind := 0; kind < 3; kind++ {
		for seed := int64(0); seed < casesPerKind; seed++ {
			rng := stats.NewRNG(seed*3 + int64(kind))
			initial, rs, final := genCase(rng, kind)
			writes := FromRoutines(rs)
			got, want := Check(initial, writes, final), referenceCheck(initial, writes, final)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kind %d seed %d:\n  worklist  %+v\n  reference %+v\n  writes %v\n  final %v",
					kind, seed, got, want, writes, final)
			}
			if got.Congruent {
				congruent[kind]++
			}
		}
	}
	// Each kind must produce what it is for: serial executions are congruent
	// (bar the shadowed duplicates), poisoned devices and planted knots never.
	if congruent[0] < casesPerKind*9/10 || congruent[1] != 0 || congruent[2] != 0 {
		t.Fatalf("congruent cases per kind = %v, want [~%d 0 0]", congruent, casesPerKind)
	}
}

// TestKnotCasesAreCyclic pins that the generator's third kind exercises the
// worklist's stuck exit (every device explainable, yet no order exists) and
// not the unexplainable-device early return.
func TestKnotCasesAreCyclic(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		initial, rs, final := genCase(stats.NewRNG(seed*3+2), 2)
		writes := FromRoutines(rs)
		res := Check(initial, writes, final)
		if res.Congruent || len(res.BadDevices) < 2 {
			t.Fatalf("seed %d: knot not detected: %+v", seed, res)
		}
		for _, d := range res.BadDevices {
			explained := false
			for _, w := range writes {
				for _, wr := range w.Final {
					explained = explained || (wr.Device == d && wr.State == final[d])
				}
			}
			if !explained {
				t.Fatalf("seed %d: %s is unexplainable, so the case never reached the worklist", seed, d)
			}
		}
	}
}
