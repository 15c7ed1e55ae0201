package metrics

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

var epoch = time.Date(2021, 4, 26, 8, 0, 0, 0, time.UTC)

func event(kind visibility.EventKind, rid routine.ID, dev device.ID, at time.Duration) visibility.Event {
	return visibility.Event{Time: epoch.Add(at), Kind: kind, Routine: rid, Device: dev}
}

func simpleRoutine(id routine.ID, devs ...device.ID) *routine.Routine {
	r := routine.New("r")
	for _, d := range devs {
		r.Commands = append(r.Commands, routine.Command{Device: d, Target: device.On})
	}
	r.ID = id
	return r
}

func committedResult(id routine.ID, r *routine.Routine, submit, start, finish time.Duration) visibility.Result {
	return visibility.Result{
		ID: id, Routine: r, Status: visibility.StatusCommitted,
		Submitted: epoch.Add(submit), Started: epoch.Add(start), Finished: epoch.Add(finish),
		Executed: len(r.Commands),
	}
}

func TestRecorderTemporaryIncongruence(t *testing.T) {
	rec := NewRecorder(100 * time.Millisecond)
	// R1 modifies light-1, then R2 modifies the same device before R1
	// finishes: R1 suffers a temporary incongruence event.
	rec.Observe(event(visibility.EvStarted, 1, "", 0))
	rec.Observe(event(visibility.EvStarted, 2, "", 10*time.Millisecond))
	rec.Observe(event(visibility.EvCommandExecuted, 1, "light-1", 20*time.Millisecond))
	rec.Observe(event(visibility.EvCommandExecuted, 2, "light-1", 30*time.Millisecond))
	rec.Observe(event(visibility.EvCommitted, 1, "", 40*time.Millisecond))
	rec.Observe(event(visibility.EvCommitted, 2, "", 50*time.Millisecond))

	r1 := simpleRoutine(1, "light-1")
	r2 := simpleRoutine(2, "light-1")
	results := []visibility.Result{
		committedResult(1, r1, 0, 0, 40*time.Millisecond),
		committedResult(2, r2, 0, 10*time.Millisecond, 50*time.Millisecond),
	}
	ser := []order.Node{order.RoutineNode(1), order.RoutineNode(2)}
	rep := rec.Finalize(visibility.EV, visibility.SchedTL, results, ser)

	if rep.TempIncongruent != 1 {
		t.Errorf("TempIncongruent = %d, want 1 (only R1)", rep.TempIncongruent)
	}
	if rep.TempIncongruence != 0.5 {
		t.Errorf("TempIncongruence = %v, want 0.5", rep.TempIncongruence)
	}
	if rep.Committed != 2 || rep.Aborted != 0 {
		t.Errorf("committed/aborted = %d/%d, want 2/0", rep.Committed, rep.Aborted)
	}
	if len(rep.Latencies) != 2 {
		t.Errorf("latencies = %v, want 2 entries", rep.Latencies)
	}
	if rep.OrderMismatch != 0 {
		t.Errorf("OrderMismatch = %v, want 0 (serialized in submission order)", rep.OrderMismatch)
	}
}

func TestRecorderNoIncongruenceAfterFinish(t *testing.T) {
	rec := NewRecorder(100 * time.Millisecond)
	// R1 finishes before R2 touches the shared device: no incongruence.
	rec.Observe(event(visibility.EvStarted, 1, "", 0))
	rec.Observe(event(visibility.EvCommandExecuted, 1, "light-1", 10*time.Millisecond))
	rec.Observe(event(visibility.EvCommitted, 1, "", 20*time.Millisecond))
	rec.Observe(event(visibility.EvStarted, 2, "", 30*time.Millisecond))
	rec.Observe(event(visibility.EvCommandExecuted, 2, "light-1", 40*time.Millisecond))
	rec.Observe(event(visibility.EvCommitted, 2, "", 50*time.Millisecond))

	results := []visibility.Result{
		committedResult(1, simpleRoutine(1, "light-1"), 0, 0, 20*time.Millisecond),
		committedResult(2, simpleRoutine(2, "light-1"), 30*time.Millisecond, 30*time.Millisecond, 50*time.Millisecond),
	}
	rep := rec.Finalize(visibility.EV, visibility.SchedTL, results, nil)
	if rep.TempIncongruent != 0 {
		t.Errorf("TempIncongruent = %d, want 0", rep.TempIncongruent)
	}
}

func TestRecorderParallelismSamples(t *testing.T) {
	rec := NewRecorder(0)
	rec.Observe(event(visibility.EvStarted, 1, "", 0))   // 1 active
	rec.Observe(event(visibility.EvStarted, 2, "", 0))   // 2 active
	rec.Observe(event(visibility.EvCommitted, 1, "", 0)) // 1 active
	rec.Observe(event(visibility.EvCommitted, 2, "", 0)) // 0 active

	rep := rec.Finalize(visibility.EV, visibility.SchedTL, nil, nil)
	want := []float64{1, 2, 1, 0}
	if len(rep.ParallelismSamples) != len(want) {
		t.Fatalf("samples = %v, want %v", rep.ParallelismSamples, want)
	}
	for i, v := range want {
		if rep.ParallelismSamples[i] != v {
			t.Fatalf("samples = %v, want %v", rep.ParallelismSamples, want)
		}
	}
	if rep.Parallelism != 1.0 {
		t.Errorf("Parallelism = %v, want 1.0", rep.Parallelism)
	}
}

func TestFinalizeAbortsAndRollbackOverhead(t *testing.T) {
	rec := NewRecorder(100 * time.Millisecond)
	r1 := simpleRoutine(1, "a", "b")
	r2 := simpleRoutine(2, "c", "d")
	results := []visibility.Result{
		{ID: 1, Routine: r1, Status: visibility.StatusAborted,
			Submitted: epoch, Started: epoch, Finished: epoch.Add(time.Second),
			Executed: 2, RolledBack: 1},
		{ID: 2, Routine: r2, Status: visibility.StatusAborted,
			Submitted: epoch, Started: epoch, Finished: epoch.Add(time.Second),
			Executed: 4, RolledBack: 4},
	}
	rep := rec.Finalize(visibility.PSV, visibility.SchedTL, results, nil)
	if rep.AbortRate != 1.0 {
		t.Errorf("AbortRate = %v, want 1", rep.AbortRate)
	}
	if got, want := rep.RollbackOverhead, (0.5+1.0)/2; got != want {
		t.Errorf("RollbackOverhead = %v, want %v", got, want)
	}
	if len(rep.Latencies) != 0 {
		t.Errorf("aborted routines must not contribute latencies: %v", rep.Latencies)
	}
}

func TestFinalizeOrderMismatch(t *testing.T) {
	rec := NewRecorder(100 * time.Millisecond)
	r1, r2 := simpleRoutine(1, "a"), simpleRoutine(2, "b")
	results := []visibility.Result{
		committedResult(1, r1, 0, 0, time.Second),
		committedResult(2, r2, 0, 0, time.Second),
	}
	// Serialized in reverse of submission order: mismatch = 1 (the only pair
	// is discordant).
	ser := []order.Node{order.RoutineNode(2), order.RoutineNode(1)}
	rep := rec.Finalize(visibility.EV, visibility.SchedTL, results, ser)
	if rep.OrderMismatch != 1.0 {
		t.Errorf("OrderMismatch = %v, want 1.0", rep.OrderMismatch)
	}
}

func TestMergeAggregatesTrials(t *testing.T) {
	reports := []Report{
		{
			Model: visibility.EV, Scheduler: visibility.SchedTL,
			Routines: 2, Committed: 2,
			Latencies:           []time.Duration{100 * time.Millisecond, 300 * time.Millisecond},
			NormalizedLatencies: []float64{1, 3},
			StretchFactors:      []float64{1, 1.5},
			ParallelismSamples:  []float64{1, 2},
			TempIncongruence:    0.5,
			FinalCongruent:      true,
		},
		{
			Model: visibility.EV, Scheduler: visibility.SchedTL,
			Routines: 2, Committed: 1, Aborted: 1,
			Latencies:          []time.Duration{200 * time.Millisecond},
			ParallelismSamples: []float64{1},
			AbortRate:          0.5,
			RollbackOverhead:   1.0,
			FinalCongruent:     false,
		},
	}
	agg := Merge(reports)
	if agg.Trials != 2 || agg.Routines != 4 || agg.Committed != 3 || agg.Aborted != 1 {
		t.Errorf("aggregate counts wrong: %+v", agg)
	}
	if agg.FinalIncongruence != 0.5 {
		t.Errorf("FinalIncongruence = %v, want 0.5", agg.FinalIncongruence)
	}
	if agg.LatencyMS.Count != 3 {
		t.Errorf("latency count = %d, want 3", agg.LatencyMS.Count)
	}
	if agg.LatencyMS.P50 != 200 {
		t.Errorf("latency p50 = %v, want 200", agg.LatencyMS.P50)
	}
	if agg.Label() != "EV(TL)" {
		t.Errorf("Label = %q, want EV(TL)", agg.Label())
	}
	if agg.String() == "" {
		t.Error("String() should not be empty")
	}
}

func TestMergeEmpty(t *testing.T) {
	agg := Merge(nil)
	if agg.Trials != 0 || agg.FinalIncongruence != 0 {
		t.Errorf("empty merge should be zero-valued: %+v", agg)
	}
}

func TestLabelNonEV(t *testing.T) {
	agg := Merge([]Report{{Model: visibility.GSV}})
	if agg.Label() != "GSV" {
		t.Errorf("Label = %q, want GSV", agg.Label())
	}
}

// TestRecorderCycleDoesNotAllocate pins the record reuse: once warmed, a
// routine's start → command → commit costs the recorder nothing, because a
// finished routine's record serves the next one to start. (The parallelism
// samples still grow, amortized below one object per cycle.)
func TestRecorderCycleDoesNotAllocate(t *testing.T) {
	rec := NewRecorder(100 * time.Millisecond)
	id := routine.ID(0)
	cycle := func() {
		id++
		rec.Observe(event(visibility.EvStarted, id, "", 0))
		rec.Observe(event(visibility.EvCommandExecuted, id, "light-1", 0))
		rec.Observe(event(visibility.EvCommitted, id, "", 0))
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(1000, cycle)
	t.Logf("%.1f allocs per cycle", got)
	if got != 0 {
		t.Fatalf("a warmed start/command/commit cycle costs %v allocs, want 0", got)
	}
	if len(rec.running) != 0 || len(rec.modifiers["light-1"]) != 0 || len(rec.spare) != 1 {
		t.Fatalf("after the cycles: %d running, %d modifiers, %d spare records; want 0, 0, 1",
			len(rec.running), len(rec.modifiers["light-1"]), len(rec.spare))
	}
}
