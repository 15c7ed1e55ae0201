// Idle-home oracle: the generative sweep marks a slice of homes Idle — all
// their work lands in a setup burst, then silence. Those are exactly the
// homes hibernation exists for, so each idle spec additionally runs through
// a durable home that is frozen after the burst and woken from its final
// checkpoint, demanding that every acknowledged result and committed state
// survives the freeze→wake round trip bit-for-bit.
package harness

import (
	"fmt"
	"os"
	"time"

	"safehome/internal/journal"
	"safehome/internal/runtime"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// CheckFreezeWake replays an idle spec's submissions into a durable
// paced-clock home, pumps it dry, freezes it through the hibernation path
// (the final checkpoint, headed by the frozen summary), wakes it the way
// the manager does (rebuild from checkpoint + journal tail), and verifies
// the woken home's history and committed states match the pre-freeze ones
// exactly — and that the wake wrote nothing: crashed before it appends, the
// home is still frozen on disk. Failure injections are not replayed: the
// oracle isolates the freeze/wake contract, which the crash drills already
// test under faults.
func CheckFreezeWake(spec workload.Spec, sched visibility.SchedulerKind) ([]Violation, error) {
	dir, err := os.MkdirTemp("", "safehome-idle-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := runtime.Config{
		ID:        spec.Name,
		Clock:     runtime.ClockPaced,
		Model:     visibility.EV,
		Scheduler: sched,
		DataDir:   dir,
	}
	home, err := runtime.NewSim(cfg, spec.Registry())
	if err != nil {
		return nil, fmt.Errorf("harness: idle oracle open: %w", err)
	}
	for _, sub := range spec.Submissions {
		if _, err := home.Submit(sub.Routine); err != nil {
			home.Close()
			return nil, fmt.Errorf("harness: idle oracle submit: %w", err)
		}
	}
	if err := pumpDry(home, time.Now().Add(30*time.Second)); err != nil {
		home.Close()
		return nil, err
	}
	before := home.Results()
	beforeStates := home.CommittedStates()

	fr, err := home.Freeze()
	if err != nil {
		home.Close()
		return nil, fmt.Errorf("harness: idle oracle freeze: %w", err)
	}

	var out []Violation
	if fr.Routines != len(before) {
		out = append(out, Violation{"frozen-record-diverged",
			fmt.Sprintf("frozen record claims %d routines, home acknowledged %d", fr.Routines, len(before))})
	}

	// The home's journal is a private log under dir: no shared writer.
	frozenOnDisk := func(when string) {
		if head, err := journal.ReadHead(dir, func(string) *journal.GroupWriter { return nil }); err != nil || head == nil || head.Frozen == nil {
			out = append(out, Violation{"frozen-record-lost", fmt.Sprintf("%s, the record is not frozen (err %v)", when, err)})
		}
	}
	frozenOnDisk("after the freeze")
	woke, err := runtime.NewSim(cfg, spec.Registry())
	if err != nil {
		return nil, fmt.Errorf("harness: idle oracle wake: %w", err)
	}

	after := woke.Results()
	if len(after) != len(before) {
		out = append(out, Violation{"recovered-count",
			fmt.Sprintf("woke with %d results, froze with %d", len(after), len(before))})
	}
	byID := make(map[int]visibility.Result, len(after))
	for _, res := range after {
		byID[int(res.ID)] = res
	}
	for _, want := range before {
		have, ok := byID[int(want.ID)]
		if !ok {
			out = append(out, Violation{"lost-acked",
				fmt.Sprintf("acknowledged routine %d missing after wake", want.ID)})
			continue
		}
		if have.Status != want.Status || have.Executed != want.Executed ||
			!have.Finished.Equal(want.Finished) || have.AbortReason != want.AbortReason {
			out = append(out, Violation{"acked-diverged",
				fmt.Sprintf("routine %d woke as {%v exec=%d fin=%v %q}, froze as {%v exec=%d fin=%v %q}",
					want.ID, have.Status, have.Executed, have.Finished, have.AbortReason,
					want.Status, want.Executed, want.Finished, want.AbortReason)})
		}
	}
	afterStates := woke.CommittedStates()
	for d, s := range beforeStates {
		if afterStates[d] != s {
			out = append(out, Violation{"state-diverged",
				fmt.Sprintf("committed state of %s = %q after wake, froze with %q", d, afterStates[d], s)})
		}
	}
	if !woke.Durable() {
		out = append(out, Violation{"not-durable",
			fmt.Sprintf("woken home reports journal error: %v", woke.JournalError())})
	}
	woke.Crash()
	frozenOnDisk("crashed after the wake before an append")
	return out, nil
}
