package runtime

import (
	"fmt"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/lineage"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// tableExposer is implemented by the EV controller; the test peeks at the
// lineage table while the loop is parked (Suspend orders the loop's writes
// before our reads).
type tableExposer interface {
	Table() *lineage.Table
}

// dataLineageLen parks the loop and reads the data device's lineage length.
func dataLineageLen(t *testing.T, rt *HomeRuntime) int {
	t.Helper()
	resume, err := rt.Suspend()
	if err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	defer resume()
	return len(rt.ctrl.(tableExposer).Table().Lineage("plug-0").Accesses)
}

// TestLoopCompactsHistoryOnHorizon drives a paced-clock home with the
// gate-pattern workload (touch plug-0 briefly, hold plug-1 for minutes):
// without horizon compaction plug-0's lineage grows with every queued
// routine; with a short history horizon the loop folds the released history
// and the lineage stays bounded by the live window.
func TestLoopCompactsHistoryOnHorizon(t *testing.T) {
	run := func(horizon time.Duration) int {
		rt, err := NewSim(Config{
			ID:             "compact",
			Model:          visibility.EV,
			Clock:          ClockPaced,
			historyHorizon: horizon,
			MailboxDepth:   256,
		}, device.Plugs(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)

		const n = 48
		for i := 0; i < n; i++ {
			r := routine.New(fmt.Sprintf("gate-%d", i),
				routine.Command{Device: "plug-0", Target: device.On, Duration: 100 * time.Millisecond},
				routine.Command{Device: "plug-1", Target: device.On, Duration: 5 * time.Minute},
			)
			if _, err := rt.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		// Advance the home 20 minutes in pump steps: every routine executes
		// its plug-0 command within the first seconds, then waits on the
		// gate; a few clear the gate per step. Each pump batch ends with a
		// compactHistory check on the loop.
		base := rt.Counts().Now
		for step := 1; step <= 20; step++ {
			target := base.Add(time.Duration(step) * time.Minute)
			rt.PumpIfDue(target)
			// A suspend round-trip serializes behind the pump: once it
			// returns, the pump (and its batch-end compaction) has run.
			resume, err := rt.Suspend()
			if err != nil {
				t.Fatal(err)
			}
			resume()
		}
		return dataLineageLen(t, rt)
	}

	grown := run(-1)            // compaction disabled
	bounded := run(time.Minute) // fold anything a minute past its estimated end
	if grown < 24 {
		t.Fatalf("without compaction plug-0 has %d accesses; the gate scenario should accumulate ~44", grown)
	}
	if bounded >= grown/4 {
		t.Fatalf("with a 1m horizon plug-0 still has %d accesses (uncompacted: %d)", bounded, grown)
	}
}
