// Package congruence decides whether a smart home's end state is serially
// equivalent to *some* sequential execution of a set of routines — the
// paper's "final incongruence" metric (§7.1, Fig 12b), and the property that
// GSV/PSV/EV guarantee while Weak Visibility does not.
//
// Routines only write devices (reads happen through conditions, which do not
// affect the end state), so the question reduces to: is there a total order
// of the committed routines in which, for every device, the last routine to
// write it writes the observed final state? That can be decided greedily by
// building the order backwards: a routine may be placed last if and only if
// every not-yet-explained device it writes ends in that routine's final write
// — placing it "covers" those devices, and the argument repeats on the rest.
// The greedy choice is safe (an exchange argument shows any eligible routine
// can be placed last whenever some valid order exists).
//
// Check runs that greedy as a worklist, in time linear in the number of
// writes (plus a log factor for the heap of placeable routines): every
// routine carries a count of its writes that contradict a still-unexplained
// device, every device a list of the routines it holds back, and covering a
// device releases them. The check runs once per simulated trial over every
// committed routine, which is what made the earlier rescan-everything
// formulation (O(routines² × writes), kept as the oracle in the package
// tests) the single largest cost of a trial.
package congruence

import (
	"safehome/internal/device"
	"safehome/internal/minheap"
	"safehome/internal/routine"
)

// Write is one device's final state under a routine.
type Write struct {
	Device device.ID
	State  device.State
}

// Writes captures the effect one committed routine has on the home: for each
// device it touches, the final state that routine drives the device to.
// Final holds at most one entry per device.
type Writes struct {
	ID    routine.ID
	Final []Write
}

// FromRoutine extracts a Writes record from a routine definition.
func FromRoutine(r *routine.Routine) Writes {
	return FromRoutines([]*routine.Routine{r})[0]
}

// FromRoutines maps FromRoutine over a slice. The records share one backing
// array, so a trial's worth of routines costs two allocations, not one per
// routine.
func FromRoutines(rs []*routine.Routine) []Writes {
	n := 0
	for _, r := range rs {
		n += len(r.Commands) // upper bound on the devices r writes
	}
	all := make([]Write, 0, n)
	out := make([]Writes, len(rs))
	for i, r := range rs {
		from := len(all)
		for _, d := range r.Devices() {
			st, _ := r.LastWriteTo(d)
			all = append(all, Write{Device: d, State: st})
		}
		out[i] = Writes{ID: r.ID, Final: all[from:len(all):len(all)]}
	}
	return out
}

// Result explains a congruence decision.
type Result struct {
	Congruent bool
	// Witness is one serial order of routine IDs that produces the observed
	// end state (only set when Congruent).
	Witness []routine.ID
	// BadDevices lists devices whose final state cannot be explained by any
	// serial order (unwritable values, or devices whose required last writers
	// form a cycle).
	BadDevices []device.ID
}

// Check reports whether the observed end state `final` is equal to the end
// state of some serial execution of `committed` starting from `initial`.
//
// Only devices present in `final` are checked. A device written by no
// committed routine must retain its initial state; a device with writers must
// end in the last-write state of one of them, consistently orderable across
// all devices.
func Check(initial map[device.ID]device.State, committed []Writes, final map[device.ID]device.State) Result {
	res := Result{}

	// Devices become dense slots (in ID order), so everything below indexes
	// slices; each write's device is hashed exactly once, here.
	devs := device.SortedIDs(final)
	slotOf := make(map[device.ID]int32, len(devs))
	want := make([]device.State, len(devs))
	for k, d := range devs {
		slotOf[d] = int32(k)
		want[k] = final[d]
	}
	// Routine i's writes are wslot[woff[i]:woff[i+1]]: the written device's
	// slot (-1 when final does not list the device) and whether the write
	// disagrees with the device's final state.
	woff := make([]int32, len(committed)+1)
	for i, w := range committed {
		woff[i+1] = woff[i] + int32(len(w.Final))
	}
	wslot := make([]int32, woff[len(committed)])
	wrong := make([]bool, len(wslot))
	written := make([]bool, len(devs))
	explained := make([]bool, len(devs))
	// blocks[i] counts routine i's writes that contradict a device still
	// waiting for its last writer: i can be placed last among the remaining
	// routines exactly when it is zero. heldBy[k] counts the routines device
	// k holds back that way.
	blocks := make([]int32, len(committed))
	heldBy := make([]int32, len(devs)+1)
	for i, w := range committed {
		for j, wr := range w.Final {
			p := woff[i] + int32(j)
			k, ok := slotOf[wr.Device]
			if !ok {
				wslot[p] = -1
				continue
			}
			wslot[p] = k
			written[k] = true
			if wr.State == want[k] {
				explained[k] = true
			} else {
				wrong[p] = true
				blocks[i]++
				heldBy[k+1]++
			}
		}
	}
	for k, d := range devs {
		switch {
		case !written[k]:
			if init, ok := initial[d]; ok && init != want[k] {
				res.BadDevices = append(res.BadDevices, d)
			}
		case !explained[k]:
			res.BadDevices = append(res.BadDevices, d)
		}
	}
	if len(res.BadDevices) > 0 {
		return res
	}

	// held[heldBy[k]:heldBy[k+1]] lists the routines device k holds back.
	for k := range devs {
		heldBy[k+1] += heldBy[k]
	}
	held := make([]int32, heldBy[len(devs)])
	fill := append([]int32(nil), heldBy[:len(devs)]...)
	for i := range committed {
		for p := woff[i]; p < woff[i+1]; p++ {
			if wrong[p] {
				held[fill[wslot[p]]] = int32(i)
				fill[wslot[p]]++
			}
		}
	}

	// Build the serial order backwards: repeatedly place (latest first) the
	// placeable routine with the largest ID, so the witness stays close to
	// submission order; placing it covers its devices, which may make the
	// routines they held back placeable. Every written device starts
	// uncovered.
	uncovered := written
	latestFirst := func(a, b int32) bool {
		if committed[a].ID != committed[b].ID {
			return committed[a].ID > committed[b].ID
		}
		return a < b
	}
	var placeable []int32
	for i := range committed {
		if blocks[i] == 0 {
			placeable = minheap.Push(placeable, int32(i), latestFirst)
		}
	}
	reversed := make([]routine.ID, 0, len(committed))
	for len(placeable) > 0 {
		var i int32
		placeable, i = minheap.Pop(placeable, latestFirst)
		reversed = append(reversed, committed[i].ID)
		for p := woff[i]; p < woff[i+1]; p++ {
			k := wslot[p]
			if k < 0 || !uncovered[k] {
				continue
			}
			uncovered[k] = false
			for _, j := range held[heldBy[k]:heldBy[k+1]] {
				if blocks[j]--; blocks[j] == 0 {
					placeable = minheap.Push(placeable, j, latestFirst)
				}
			}
		}
	}
	if len(reversed) < len(committed) {
		// No routine can be the latest among the rest: the required last
		// writers contradict each other.
		for k, d := range devs {
			if uncovered[k] {
				res.BadDevices = append(res.BadDevices, d)
			}
		}
		return res
	}

	res.Congruent = true
	res.Witness = reversed
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	return res
}

// SerialEndState computes the end state of executing the routines serially
// in the given order, starting from initial. Useful in tests and for
// constructing expected outcomes.
func SerialEndState(initial map[device.ID]device.State, rs []*routine.Routine, serial []routine.ID) map[device.ID]device.State {
	out := make(map[device.ID]device.State, len(initial))
	for d, s := range initial {
		out[d] = s
	}
	byID := make(map[routine.ID]*routine.Routine, len(rs))
	for _, r := range rs {
		byID[r.ID] = r
	}
	for _, id := range serial {
		r, ok := byID[id]
		if !ok {
			continue
		}
		for _, c := range r.Commands {
			out[c.Device] = c.Target
		}
	}
	return out
}
