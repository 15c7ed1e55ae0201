package journal

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeSync, ModeGroup, ModeAsync} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := ParseMode("fancy"); err == nil {
		t.Error("ParseMode accepted an unknown tier")
	}
}

// openGroupJournal opens one home's journal attached to the given writer.
func openGroupJournal(t *testing.T, dir, home string, w *GroupWriter) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, Options{Mode: ModeGroup, Writer: w, HomeID: home})
	if err != nil {
		t.Fatalf("open group journal %s: %v", home, err)
	}
	return j, rec
}

// TestGroupCommitRecoveryRoundTrip drives two homes over two shared writers
// through append/commit, kills the process image (Abandon without a final
// sync), and reopens everything — fresh writers scan the dead epoch and each
// home must recover exactly its own acknowledged batches.
func TestGroupCommitRecoveryRoundTrip(t *testing.T) {
	root := t.TempDir()
	wal := filepath.Join(root, "wal")
	homeDir := func(h string) string {
		d := filepath.Join(root, h)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	}

	ws, err := OpenWriters(wal, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jA, recA := openGroupJournal(t, homeDir("a"), "a", ws[0])
	jB, recB := openGroupJournal(t, homeDir("b"), "b", ws[1])
	if recA != nil || recB != nil {
		t.Fatalf("fresh homes recovered state: %v, %v", recA, recB)
	}
	for i := int64(1); i <= 3; i++ {
		if err := jA.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := jB.Append(&Batch{
		Submits:  []RoutineRecord{submitRec(1)},
		Finishes: []RoutineRecord{finishRec(1, visibility.StatusCommitted)},
		States:   []StateEntry{{Device: "plug-0", State: device.On}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := jB.Commit(); err != nil {
		t.Fatal(err)
	}

	// Kill the process image: no detach flush, no final writer sync. The
	// commits above already waited for their covering fsync, so everything
	// acknowledged is on disk.
	jA.Abandon()
	jB.Abandon()
	ws[0].Abandon()
	ws[1].Abandon()

	ws2, err := OpenWriters(wal, 2, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen writers: %v", err)
	}
	defer ws2[0].Close()
	defer ws2[1].Close()
	// Cross the homes over to the other writer: recovery reads the shared
	// state's epoch scan, not writer-local files.
	jA2, recA2 := openGroupJournal(t, homeDir("a"), "a", ws2[1])
	defer jA2.Close()
	jB2, recB2 := openGroupJournal(t, homeDir("b"), "b", ws2[0])
	defer jB2.Close()

	if recA2 == nil || len(recA2.Routines) != 3 || recA2.LSN != 3 {
		t.Fatalf("home a recovered %+v, want 3 routines at LSN 3", recA2)
	}
	if recB2 == nil || len(recB2.Routines) != 1 || recB2.States["plug-0"] != device.On {
		t.Fatalf("home b recovered %+v, want its finish and state", recB2)
	}
	// LSNs continue per home, and the new epoch accepts appends.
	b := &Batch{Submits: []RoutineRecord{submitRec(4)}}
	if err := jA2.Append(b); err != nil {
		t.Fatal(err)
	}
	if b.LSN != 4 {
		t.Fatalf("post-recovery LSN = %d, want 4", b.LSN)
	}
	if err := jA2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCheckpointPrunesTail: once a home checkpoints, a restart must not
// replay the checkpointed batches again (the watermark filters the shared
// tail), and checkpointing every home that owns records in a sealed epoch
// eventually removes its files.
func TestGroupCheckpointPrunesTail(t *testing.T) {
	root := t.TempDir()
	wal := filepath.Join(root, "wal")
	dir := filepath.Join(root, "a")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	ws, err := OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := Open(dir, Options{Mode: ModeGroup, Writer: ws[0], HomeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(&Checkpoint{LSN: 1, Routines: []RoutineRecord{finishRec(1, visibility.StatusCommitted)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	ws[0].Abandon()

	ws2, err := OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws2[0].Close()
	j2, rec, err := Open(dir, Options{Mode: ModeGroup, Writer: ws2[0], HomeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec == nil || rec.LSN != 2 || len(rec.Routines) != 2 {
		t.Fatalf("recovered %+v, want checkpoint plus tail batch at LSN 2", rec)
	}
	// The fresh generation checkpoints past everything it recovered; the
	// only home in the log is now fully checkpointed, so the dead epoch's
	// files must be pruned.
	if err := j2.Checkpoint(&Checkpoint{LSN: rec.LSN, Routines: rec.Routines}); err != nil {
		t.Fatal(err)
	}
	var leftover []string
	_ = filepath.Walk(wal, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), sharedSegPrefix) {
			// The new epoch's active segment is allowed; dead epochs are not.
			if !strings.Contains(path, filepath.Join(wal, epochPrefix+"1")) {
				leftover = append(leftover, path)
			}
		}
		return nil
	})
	if len(leftover) > 0 {
		t.Errorf("checkpointed epoch left segments behind: %v", leftover)
	}
}

// TestAsyncWindowBoundsUnflushed pins the async tier's window semantics: a
// tiny window makes (nearly) every commit wait for a sync of its own, an
// unbounded window never needs one per commit — the syncer drains behind the
// acknowledgements, sharing cycles — and a clean Close leaves nothing behind
// the disk either way.
func TestAsyncWindowBoundsUnflushed(t *testing.T) {
	const commits = 8
	count := func(window int64) (syncs int) {
		var mu sync.Mutex
		dir := t.TempDir()
		j, _, err := Open(dir, Options{
			Mode:             ModeAsync,
			AsyncWindowBytes: window,
			OnSync: func(string, int64) {
				mu.Lock()
				syncs++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= commits; i++ {
			if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		before := syncs
		mu.Unlock()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if rec == nil || len(rec.Routines) != commits {
			t.Fatalf("window=%d: clean close lost acknowledged records: %+v", window, rec)
		}
		return before
	}

	if syncs := count(1); syncs < commits-1 {
		t.Errorf("window=1: %d syncs over %d commits, want one per commit", syncs, commits)
	}
	if syncs := count(-1); syncs > commits {
		t.Errorf("unbounded window: %d syncs over %d commits, want at most one each", syncs, commits)
	}
}

// TestAppendCommitAllocs: after warm-up a drain's Append and Commit allocate
// at most once between them. The batch is encoded into the journal's reused
// frame, the writer copies it into its reused pending buffer, and the commit
// parks on the journal's own ticket.
func TestAppendCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	j, _, err := Open(t.TempDir(), Options{HomeID: "home-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := finishRec(1, visibility.StatusCommitted)
	rec.Commands = []routine.Command{{Device: "plug-0", Target: device.On, Duration: time.Second}}
	b := &Batch{
		Submits:  []RoutineRecord{submitRec(2)},
		Finishes: []RoutineRecord{rec},
		States:   []StateEntry{{Device: "plug-0", State: device.On}},
		FirstSeq: 7,
		Events:   []EventRecord{{Time: time.Unix(9, 5).UTC(), Kind: 5, Routine: 1, Detail: "committed"}},
	}
	drain := func() {
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		drain()
	}
	if n := testing.AllocsPerRun(100, drain); n > 1 {
		t.Fatalf("Append + Commit allocate %.2f times per drain, want at most 1", n)
	}
}

// TestReusedTicketReleasesOnlyItsOwnCommit: each journal reuses one commit
// ticket, and a Commit that returns nil is covered by a sync — no release of
// an earlier wait completes a later one. Every release the writer counts in
// OnCycle is one parked Commit. A commit parked when the writer fails is
// released with the error.
func TestReusedTicketReleasesOnlyItsOwnCommit(t *testing.T) {
	const rounds = 200
	var released atomic.Int64
	ws, err := OpenWriters(filepath.Join(t.TempDir(), "wal"), 1, WriterOptions{
		SyncDelay: 100 * time.Microsecond,
		OnCycle:   func(_ int64, commits int) { released.Add(int64(commits)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	var wg sync.WaitGroup
	for _, home := range []string{"a", "b", "c"} {
		j, _ := openGroupJournal(t, filepath.Join(t.TempDir(), home), home, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= rounds; i++ {
				if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
					t.Error(err)
					return
				}
				if err := j.Commit(); err != nil {
					t.Error(err)
					return
				}
				w.mu.Lock()
				synced, end := w.totalSynced, j.wEnd
				w.mu.Unlock()
				if synced < end {
					t.Errorf("home %s: commit %d returned at sync position %d, below its end %d", j.home, i, synced, end)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := released.Load(); n < 1 || n > 3*rounds {
		t.Errorf("the writer released %d commits, want between 1 and %d", n, 3*rounds)
	}

	w.Abandon()

	// A commit parked in the group window when its writer is abandoned is
	// released with the error, and its ticket is left empty. The window is
	// long (it applies while more than one home is attached), so the commit
	// is still parked when the writer goes.
	ws, err = OpenWriters(filepath.Join(t.TempDir(), "wal"), 1, WriterOptions{SyncDelay: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w = ws[0]
	openGroupJournal(t, filepath.Join(t.TempDir(), "idle"), "idle", w)
	j, _ := openGroupJournal(t, filepath.Join(t.TempDir(), "d"), "d", w)
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Commit() }()
	for parked := false; !parked; {
		w.mu.Lock()
		parked = slices.Contains(w.tickets, &j.ticket)
		w.mu.Unlock()
		if !parked {
			time.Sleep(50 * time.Microsecond)
		}
	}
	w.Abandon()
	if err := <-done; err == nil {
		t.Fatal("a commit parked when its writer was abandoned returned nil")
	}
	if len(j.ticket.done) != 0 {
		t.Fatal("the released ticket still holds a release")
	}
	if err := j.Commit(); err == nil {
		t.Fatal("a commit on an abandoned writer returned nil")
	}
}
