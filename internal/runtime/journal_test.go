package runtime

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// journaledConfig is a virtual-clock EV runtime persisting into dir.
func journaledConfig(dir string) Config {
	return Config{
		ID:       "durable",
		Model:    visibility.EV,
		EventLog: 64,
		DataDir:  dir,
	}
}

func benchRoutine(name string, seed int64) *routine.Routine {
	r := routine.New(name)
	for c := 0; c < 3; c++ {
		r.Commands = append(r.Commands, routine.Command{
			Device:   device.ID(fmt.Sprintf("plug-%d", int(seed+int64(c*3))%8)),
			Target:   device.On,
			Duration: time.Duration(1+c) * time.Minute,
		})
	}
	return r
}

// TestKillRecoverLosesNoAcknowledgedOp is the headline durability drill: a
// SIGKILL-equivalent stop mid-workload, then a reopen from the same data
// dir. Every result the caller saw committed must be present after recovery
// with identical outcome, the committed device states must match, and new
// submissions must continue the routine-ID sequence.
func TestKillRecoverLosesNoAcknowledgedOp(t *testing.T) {
	dir := t.TempDir()
	rt, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := rt.Submit(benchRoutine(fmt.Sprintf("r-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Everything the callers saw: under the virtual clock each Submit
	// returned only after its routine finished and the batch group-committed.
	acked := rt.Results()
	states := rt.CommittedStates()
	ground := rt.DeviceStates()
	rt.Crash()

	rec, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	got := rec.Results()
	if len(got) != len(acked) {
		t.Fatalf("recovered %d results, acked %d", len(got), len(acked))
	}
	for i, want := range acked {
		have := got[i]
		if have.ID != want.ID || have.Status != want.Status ||
			have.Executed != want.Executed || have.RolledBack != want.RolledBack ||
			have.AbortReason != want.AbortReason || !have.Finished.Equal(want.Finished) {
			t.Fatalf("result %d diverged:\n  acked     %+v\n  recovered %+v", want.ID, want, have)
		}
		if have.Routine == nil || have.Routine.Name != want.Routine.Name {
			t.Fatalf("result %d lost its routine: %+v", want.ID, have.Routine)
		}
	}
	recStates := rec.CommittedStates()
	for d, s := range states {
		if recStates[d] != s {
			t.Fatalf("committed state of %s = %q, want %q", d, recStates[d], s)
		}
	}
	recGround := rec.DeviceStates()
	for d, s := range ground {
		if recGround[d] != s {
			t.Fatalf("ground truth of %s = %q, want %q", d, recGround[d], s)
		}
	}

	// New work continues the ID sequence after the recovered history.
	rid, err := rec.Submit(benchRoutine("post", 99))
	if err != nil {
		t.Fatal(err)
	}
	if rid != routine.ID(n+1) {
		t.Fatalf("post-recovery routine ID = %d, want %d", rid, n+1)
	}
}

// TestKillRecoverAbortsInFlight crashes a paced-clock home with routines
// still open: recovery must surface them as Aborted (with the restart
// reason) and roll the home back to its pre-routine committed states.
func TestKillRecoverAbortsInFlight(t *testing.T) {
	dir := t.TempDir()
	cfg := journaledConfig(dir)
	cfg.Clock = ClockPaced
	rt, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	// First, a routine pumped to completion (an acknowledged commit).
	if _, err := rt.Submit(benchRoutine("done", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.PendingCount() > 0 {
		rt.PumpIfDue(time.Now().Add(time.Hour))
		if time.Now().After(deadline) {
			t.Fatal("routine never finished under pumping")
		}
		time.Sleep(time.Millisecond)
	}
	committedBefore := rt.CommittedStates()
	// Then two routines left in flight: accepted and journaled, never run.
	if _, err := rt.Submit(benchRoutine("open-1", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(benchRoutine("open-2", 3)); err != nil {
		t.Fatal(err)
	}
	rt.Crash()

	rec, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	results := rec.Results()
	if len(results) != 3 {
		t.Fatalf("recovered %d results, want 3", len(results))
	}
	if results[0].Status != visibility.StatusCommitted {
		t.Fatalf("finished routine recovered as %s", results[0].Status)
	}
	for _, res := range results[1:] {
		if res.Status != visibility.StatusAborted {
			t.Fatalf("in-flight routine %d recovered as %s, want aborted", res.ID, res.Status)
		}
		if res.AbortReason == "" {
			t.Fatalf("in-flight routine %d has no abort reason", res.ID)
		}
	}
	if rec.PendingCount() != 0 {
		t.Fatalf("pending after recovery = %d", rec.PendingCount())
	}
	// Rollback semantics: the aborted routines' writes never reached the
	// committed view, so it matches the pre-routine state exactly.
	recStates := rec.CommittedStates()
	for d, s := range committedBefore {
		if recStates[d] != s {
			t.Fatalf("committed state of %s = %q, want pre-routine %q", d, recStates[d], s)
		}
	}
	for d, s := range recStates {
		if committedBefore[d] != s {
			t.Fatalf("committed state of %s = %q appeared after recovery", d, s)
		}
	}
}

// TestEventCursorsSurviveRestart checks GET /api/events?since=N semantics
// across a crash: sequence numbers stay strictly monotonic, and a poller's
// cursor from before the crash fetches exactly the post-crash tail.
func TestEventCursorsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	rt, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(benchRoutine("a", 1)); err != nil {
		t.Fatal(err)
	}
	before, cursor := rt.EventsSince(0)
	if len(before) == 0 || cursor == 0 {
		t.Fatalf("no events before crash (cursor %d)", cursor)
	}
	rt.Crash()

	rec, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	// The recovered log replays the same window: the old cursor is valid.
	replayed, cursor2 := rec.EventsSince(0)
	if cursor2 < cursor {
		t.Fatalf("cursor went backwards across restart: %d -> %d", cursor, cursor2)
	}
	if len(replayed) < len(before) {
		t.Fatalf("event window shrank: %d -> %d", len(before), len(replayed))
	}
	if _, err := rec.Submit(benchRoutine("b", 2)); err != nil {
		t.Fatal(err)
	}
	tail, cursor3 := rec.EventsSince(cursor)
	if cursor3 <= cursor2 {
		t.Fatalf("cursor not strictly monotonic: %d then %d", cursor2, cursor3)
	}
	if len(tail) == 0 {
		t.Fatal("pre-crash cursor returned no post-crash tail")
	}
	// The tail must contain only post-cursor events: replaying EventsSince
	// from 0 and slicing at the cursor gives the same records.
	all, _ := rec.EventsSince(0)
	wantTail := all[len(all)-len(tail):]
	for i := range tail {
		if tail[i] != wantTail[i] {
			t.Fatalf("tail[%d] = %+v, want %+v", i, tail[i], wantTail[i])
		}
	}
}

// TestCleanCloseThenReopen: a graceful Close writes a final checkpoint, so
// reopening replays nothing and aborts nothing.
func TestCleanCloseThenReopen(t *testing.T) {
	dir := t.TempDir()
	rt, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rt.Submit(benchRoutine(fmt.Sprintf("r-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := rt.Results()
	rt.Close()

	rec, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Results()
	if len(got) != len(want) {
		t.Fatalf("recovered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Status != want[i].Status || got[i].ID != want[i].ID {
			t.Fatalf("result %d: %s, want %s", want[i].ID, got[i].Status, want[i].Status)
		}
		if got[i].Status == visibility.StatusAborted {
			t.Fatalf("clean close produced an aborted recovery: %+v", got[i])
		}
	}
}

// TestRecoveryAfterCheckpointTruncation drives enough journal through a tiny
// checkpoint threshold that multiple checkpoints (and segment truncations)
// happen mid-workload, then crashes and verifies the recovery is still
// exact.
func TestRecoveryAfterCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	cfg := journaledConfig(dir)
	cfg.Journal = journal.Options{SegmentBytes: 2048, CheckpointBytes: 4096}
	rt, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := rt.Submit(benchRoutine(fmt.Sprintf("r-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.JournalError(); err != nil {
		t.Fatalf("journal failed mid-workload: %v", err)
	}
	acked := rt.Results()
	rt.Crash()

	// The workload must have outgrown one segment several times over; the
	// checkpoints should have kept the directory bounded.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 8 {
		t.Fatalf("checkpointing never truncated: %d files in %s", len(entries), dir)
	}

	rec, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Results()
	if len(got) != n {
		t.Fatalf("recovered %d results, want %d", len(got), n)
	}
	for i := range acked {
		if got[i].Status != acked[i].Status || got[i].ID != acked[i].ID {
			t.Fatalf("result %d: %s, want %s", acked[i].ID, got[i].Status, acked[i].Status)
		}
	}
}

// TestCrashDuringConcurrentSubmits crashes while parallel clients are
// submitting: afterwards, every submission that was acknowledged without
// error must be present in the recovery (the group commit ran before the
// reply), and every ErrClosed reply must stay consistent with a dense
// recovered history.
func TestCrashDuringConcurrentSubmits(t *testing.T) {
	dir := t.TempDir()
	rt, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		acked []routine.ID
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rid, err := rt.Submit(benchRoutine(fmt.Sprintf("w%d-%d", w, i), int64(i)))
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					if errors.Is(err, ErrOverloaded) {
						continue
					}
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, rid)
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	rt.Crash()
	close(stop)
	wg.Wait()

	rec, err := NewSim(journaledConfig(dir), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	results := rec.Results()
	for _, rid := range acked {
		if int64(rid) > int64(len(results)) {
			t.Fatalf("acknowledged routine %d missing from %d recovered results", rid, len(results))
		}
		if res := results[rid-1]; !res.Status.Finished() {
			t.Fatalf("acknowledged routine %d recovered unfinished: %s", rid, res.Status)
		}
	}
}

// TestNoDataDirWritesNothing: without DataDir the runtime must not create
// files or change behavior (Durable reports false).
func TestNoDataDirWritesNothing(t *testing.T) {
	rt, err := NewSim(Config{ID: "mem", Model: visibility.EV, EventLog: 16}, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Durable() {
		t.Fatal("memory-only runtime claims durability")
	}
	if _, err := rt.Submit(benchRoutine("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.JournalError(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRuntimeRecovery covers the wall-clock (hub) shape: a live home
// journals through the same path, and recovery restores results and
// committed states over the actuator-backed controller.
func TestLiveRuntimeRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := device.Plugs(4)
	fleet := device.NewFleet(reg)
	cfg := Config{ID: "live", Model: visibility.EV, EventLog: 64, DataDir: dir, FailureInterval: time.Hour}
	rt, err := NewLive(cfg, reg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	r := routine.New("lights",
		routine.Command{Device: "plug-0", Target: device.On},
		routine.Command{Device: "plug-1", Target: device.On},
	)
	if _, err := rt.Submit(r); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.PendingCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("live routine never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := rt.Results()
	rt.Crash()

	rec, err := NewLive(cfg, reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Results()
	if len(got) != len(want) || got[0].Status != visibility.StatusCommitted {
		t.Fatalf("live recovery: got %+v, want %+v", got, want)
	}
	states := rec.CommittedStates()
	if states["plug-0"] != device.On || states["plug-1"] != device.On {
		t.Fatalf("live committed states not recovered: %v", states)
	}
}

// TestTornRuntimeTailDropsOnlyUnacked truncates the newest journal segment
// behind the runtime's back (a torn write at the crash instant) and checks
// recovery still yields a dense, internally consistent prefix.
func TestTornRuntimeTailDropsOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	cfg := journaledConfig(dir)
	// No checkpoints: keep every batch in the tail so the tear hits a batch.
	cfg.Journal = journal.Options{CheckpointBytes: 1 << 40}
	rt, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := rt.Submit(benchRoutine(fmt.Sprintf("r-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rt.Crash()

	// Tear bytes off the newest segment.
	segs := journal.SegmentFiles(dir)
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	path := segs[len(segs)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 8 {
		t.Skip("tail segment too small to tear")
	}
	if err := os.WriteFile(path, buf[:len(buf)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := NewSim(cfg, device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	results := rec.Results()
	if len(results) == 0 || len(results) >= n {
		t.Fatalf("torn tail recovered %d results, want a proper prefix of %d", len(results), n)
	}
	for i, res := range results {
		if int64(res.ID) != int64(i+1) {
			t.Fatalf("recovered history not dense at %d: %+v", i, res)
		}
	}
}
