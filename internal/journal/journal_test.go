package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

func submitRec(id int64) RoutineRecord {
	return RoutineRecord{
		ID:        id,
		Name:      "r",
		Status:    visibility.StatusWaiting.String(),
		Submitted: time.Unix(id, 0).UTC(),
	}
}

func finishRec(id int64, status visibility.RoutineStatus) RoutineRecord {
	r := submitRec(id)
	r.Status = status.String()
	r.Finished = time.Unix(id+100, 0).UTC()
	r.Executed = 2
	return r
}

// ownedJournal is a journal with the one-writer fleet under <dir>/wal it
// appends through, the test playing the owner of dir: Close and Abandon
// take the fleet down with the journal, as the owner's exit or kill would.
type ownedJournal struct {
	*Journal
	w *GroupWriter
}

// openLog opens the one-writer fleet under dir/wal with the tier's sync
// window (unless wopts sets one). Cleanup abandons it if the test did not.
func openLog(t testing.TB, dir string, mode Mode, wopts WriterOptions) (*GroupWriter, error) {
	if wopts.SyncDelay == 0 {
		wopts.SyncDelay = WriterOptionsFor(mode).SyncDelay
	}
	ws, err := OpenWriters(filepath.Join(dir, walDir), 1, wopts)
	if err != nil {
		return nil, err
	}
	t.Cleanup(ws[0].Abandon)
	return ws[0], nil
}

// segmentFiles is SegmentFiles failing t on a listing error.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// openOwned opens the journal in dir through a fleet of its own (openLog),
// as home "home" unless opts names one.
func openOwned(t testing.TB, dir string, opts Options, wopts WriterOptions) (*ownedJournal, *Recovered, error) {
	w, err := openLog(t, dir, ResolveMode(opts, ModeSync), wopts)
	if err != nil {
		return nil, nil, err
	}
	if opts.HomeID == "" {
		opts.HomeID = "home"
	}
	opts.Writer = w
	j, rec, err := Open(dir, opts)
	if err != nil {
		w.Abandon()
		return nil, nil, err
	}
	return &ownedJournal{j, w}, rec, nil
}

func (o *ownedJournal) Close() error {
	err := o.Journal.Close()
	if cerr := o.w.Close(); err == nil {
		err = cerr
	}
	return err
}

func (o *ownedJournal) Abandon() {
	o.Journal.Abandon()
	o.w.Abandon()
}

// TestOpenNeedsTheOwnersWriter: a journal never opens a log of its own —
// without a writer or a home ID, Open fails and writes nothing.
func TestOpenNeedsTheOwnersWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := openLog(t, t.TempDir(), ModeSync, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"no writer":  {HomeID: "h"},
		"no home ID": {Writer: w},
	} {
		if j, _, err := Open(dir, opts); err == nil {
			j.Close()
			t.Fatalf("%s: Open succeeded", name)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a refused Open wrote %d entries", len(entries))
	}
}

// TestDirectoryLockExcludesSecondOpener: one process owns a data directory
// through its fleet's wal.lock; a racing second opener must fail fast
// instead of reusing acknowledged LSNs. Closing (or a crash releasing the
// flock) frees the directory for the successor.
func TestDirectoryLockExcludesSecondOpener(t *testing.T) {
	wal := filepath.Join(t.TempDir(), walDir)
	ws, err := OpenWriters(wal, 2, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(wal, walLockName)); err != nil {
		t.Fatalf("open fleet holds no wal.lock: %v", err)
	}
	if _, err := OpenWriters(wal, 1, WriterOptions{}); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second OpenWriters of a locked directory: err = %v, want in use", err)
	}
	// The lock is the fleet's: it holds until every writer is released.
	ws[0].Close()
	if _, err := OpenWriters(wal, 1, WriterOptions{}); err == nil {
		t.Fatal("OpenWriters succeeded while one writer of the fleet was still open")
	}
	ws[1].Close()
	ws, err = OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	ws[0].Abandon()
	ws, err = OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen after Abandon: %v", err)
	}
	ws[0].Close()
}

func TestOpenFreshDirRecoversNothing(t *testing.T) {
	j, rec, err := openOwned(t, t.TempDir(), Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec != nil {
		t.Fatalf("fresh dir recovered %+v, want nil", rec)
	}
}

func TestAppendCommitRecover(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered state")
	}
	b1 := &Batch{
		Submits:  []RoutineRecord{submitRec(1), submitRec(2)},
		Finishes: []RoutineRecord{finishRec(1, visibility.StatusCommitted)},
		States:   []StateEntry{{Device: "plug-0", State: device.On}},
		FirstSeq: 1,
		Events:   []EventRecord{{Kind: int(visibility.EvSubmitted), Routine: 1}},
	}
	if err := j.Append(b1); err != nil {
		t.Fatal(err)
	}
	b2 := &Batch{
		Finishes: []RoutineRecord{finishRec(2, visibility.StatusAborted)},
		States:   []StateEntry{{Device: "plug-0", State: device.Off}, {Device: "plug-1", State: device.On}},
		FirstSeq: 2,
		Events:   []EventRecord{{Kind: int(visibility.EvAborted), Routine: 2}},
	}
	if err := j.Append(b2); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if b1.LSN != 1 || b2.LSN != 2 {
		t.Fatalf("LSNs = %d, %d; want 1, 2", b1.LSN, b2.LSN)
	}
	j.Close()

	j2, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec == nil {
		t.Fatal("recovered nothing")
	}
	if len(rec.Routines) != 2 {
		t.Fatalf("recovered %d routines, want 2", len(rec.Routines))
	}
	if rec.Routines[0].Status != "committed" || rec.Routines[1].Status != "aborted" {
		t.Fatalf("statuses = %s, %s", rec.Routines[0].Status, rec.Routines[1].Status)
	}
	if rec.States["plug-0"] != device.Off || rec.States["plug-1"] != device.On {
		t.Fatalf("states = %v", rec.States)
	}
	if rec.FirstSeq != 1 || len(rec.Events) != 2 || rec.NextSeq() != 3 {
		t.Fatalf("events window = first %d len %d next %d", rec.FirstSeq, len(rec.Events), rec.NextSeq())
	}
	if rec.LSN != 2 {
		t.Fatalf("recovered LSN = %d, want 2", rec.LSN)
	}
	// Appends after recovery continue the LSN sequence.
	b3 := &Batch{Submits: []RoutineRecord{submitRec(3)}}
	if err := j2.Append(b3); err != nil {
		t.Fatal(err)
	}
	if b3.LSN != 3 {
		t.Fatalf("post-recovery LSN = %d, want 3", b3.LSN)
	}
}

// newestSegment returns the path of the newest non-empty log segment — where
// a crash would have torn.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segmentFiles(t, dir)
	for i := len(segs) - 1; i >= 0; i-- {
		if info, err := os.Stat(segs[i]); err == nil && info.Size() > 0 {
			if !strings.HasPrefix(filepath.Base(segs[i]), sharedSegPrefix) {
				t.Fatalf("newest segment %s is not a log segment", segs[i])
			}
			return segs[i]
		}
	}
	t.Fatalf("no non-empty segments in %s", dir)
	return ""
}

func TestTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Finishes: []RoutineRecord{finishRec(1, visibility.StatusCommitted)}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the final record: chop a few bytes off the segment tail.
	seg := newestSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Routines) != 1 {
		t.Fatalf("recovered %+v, want the first batch only", rec)
	}
	if rec.Routines[0].Status != "waiting" {
		t.Fatalf("torn finish applied anyway: %s", rec.Routines[0].Status)
	}
	if rec.LSN != 1 {
		t.Fatalf("LSN = %d, want 1", rec.LSN)
	}
}

// TestTornFirstFrameDoesNotSwallowLaterAppends: when the tear hits the very
// FIRST record of the newest segment, reopening must not append new
// (acknowledged) records behind the torn bytes — that would hide them from
// the next recovery's sequential scan.
func TestTornFirstFrameDoesNotSwallowLaterAppends(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the segment's first (and only) frame mid-payload.
	seg := newestSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, buf[:frameHeaderLen+2], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil && len(rec.Routines) != 0 {
		t.Fatalf("torn-at-first-frame recovery yielded %d routines", len(rec.Routines))
	}
	// An acknowledged append after the reopen...
	if err := j2.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Commit(); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// ...must survive the next recovery.
	_, rec2, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil || len(rec2.Routines) != 1 {
		t.Fatalf("acknowledged post-tear append lost: recovered %+v", rec2)
	}
}

func TestCorruptPayloadEndsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(2)}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a payload byte of the last record: the CRC check must reject it.
	seg := newestSegment(t, dir)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Routines) != 1 {
		t.Fatalf("recovered %+v, want only the intact first batch", rec)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}, Finishes: []RoutineRecord{finishRec(i, visibility.StatusCommitted)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	// The syncer rotates the oversized segment right after releasing the
	// commit, in the same hold of the writer's lock; Err queues behind it.
	if err := j.writer.Err(); err != nil {
		t.Fatal(err)
	}
	before := len(segmentFiles(t, dir))
	if before < 2 {
		t.Fatalf("expected multiple segments before checkpoint, got %d", before)
	}

	ck := &Checkpoint{FirstSeq: 1}
	for i := int64(1); i <= 20; i++ {
		ck.Routines = append(ck.Routines, finishRec(i, visibility.StatusCommitted))
	}
	ck.States = []StateEntry{{Device: "plug-0", State: device.On}}
	if err := j.Checkpoint(ck); err != nil {
		t.Fatal(err)
	}
	after := len(segmentFiles(t, dir))
	if after != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1 (fresh tail)", after)
	}
	if j.SinceCheckpoint() != 0 {
		t.Fatalf("SinceCheckpoint = %d after checkpoint", j.SinceCheckpoint())
	}

	// Post-checkpoint appends land after the checkpoint LSN and both survive.
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(21)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Routines) != 21 {
		t.Fatalf("recovered %d routines, want 21", len(rec.Routines))
	}
	if rec.Routines[20].Status != "waiting" {
		t.Fatalf("post-checkpoint submit lost: %+v", rec.Routines[20])
	}
	if rec.States["plug-0"] != device.On {
		t.Fatalf("checkpoint states lost: %v", rec.States)
	}
}

// TestCoveredTornSegmentDoesNotMaskLiveRecords: if a checkpoint-covered
// segment survives truncation (e.g. a failed remove) with a torn tail,
// its stale tear must not end the scan before the live segments. In the log
// a tear can only sit at the end of a dead epoch's stream, and every epoch
// is scanned on its own.
func TestCoveredTornSegmentDoesNotMaskLiveRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Abandon()
	dead := newestSegment(t, dir) // epoch 0's stream

	j, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil || rec == nil || len(rec.Routines) != 3 {
		t.Fatalf("reopen: %v, recovered %+v", err, rec)
	}
	if err := j.Checkpoint(&Checkpoint{Routines: rec.Routines}); err != nil { // covers and removes epoch 0
		t.Fatal(err)
	}
	if _, err := os.Stat(dead); err == nil {
		t.Fatalf("checkpoint left the covered segment %s", dead)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(4)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Re-plant the covered segment torn, as if its removal had failed.
	if err := os.MkdirAll(filepath.Dir(dead), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dead, []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, err = openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(rec.Routines) != 4 {
		t.Fatalf("covered torn segment masked live records: recovered %+v, want 4 routines", rec)
	}
}

func TestShouldCheckpointThreshold(t *testing.T) {
	j, _, err := openOwned(t, t.TempDir(), Options{CheckpointBytes: 64}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.ShouldCheckpoint() {
		t.Fatal("fresh journal wants a checkpoint")
	}
	for !j.ShouldCheckpoint() {
		if err := j.Append(&Batch{States: []StateEntry{{Device: "d", State: device.On}}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEventWindowGapKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Seq 5..6, then a gap (7..9 evicted before journaling), then 10..11.
	if err := j.Append(&Batch{FirstSeq: 5, Events: []EventRecord{{Kind: 1}, {Kind: 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{FirstSeq: 10, Events: []EventRecord{{Kind: 3}, {Kind: 4}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, rec, err := openOwned(t, dir, Options{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.FirstSeq != 10 || len(rec.Events) != 2 || rec.NextSeq() != 12 {
		t.Fatalf("window = first %d len %d next %d; want 10, 2, 12", rec.FirstSeq, len(rec.Events), rec.NextSeq())
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := visibility.Result{
		ID:     7,
		Status: visibility.StatusAborted,
		Routine: routine.New("cool",
			routine.Command{Device: "window", Target: device.Closed},
			routine.Command{Device: "ac", Target: device.On, Duration: time.Minute},
		),

		Submitted:          time.Unix(1, 0).UTC(),
		Started:            time.Unix(2, 0).UTC(),
		Finished:           time.Unix(3, 0).UTC(),
		Executed:           3,
		Skipped:            1,
		BestEffortFailures: 2,
		RolledBack:         3,
		AbortReason:        "device failure",
	}
	back := FromResult(res).ToResult()
	if back.ID != res.ID || back.Status != res.Status || back.AbortReason != res.AbortReason ||
		back.Executed != res.Executed || back.RolledBack != res.RolledBack ||
		!back.Finished.Equal(res.Finished) {
		t.Fatalf("round trip mangled result: %+v", back)
	}
	if back.Routine == nil || back.Routine.Name != "cool" || len(back.Routine.Commands) != 2 {
		t.Fatalf("round trip mangled routine: %+v", back.Routine)
	}
	if back.Routine.Commands[1].Duration != time.Minute {
		t.Fatalf("command duration lost: %+v", back.Routine.Commands[1])
	}
}

// TestInjectErrSurfacesOnEachWritePath: the fault-injection hook fails each
// write path with the planted error, wrapped in that operation's context, and
// leaves the journal usable once the hook stops failing.
func TestInjectErrSurfacesOnEachWritePath(t *testing.T) {
	var failOp string
	planted := errors.New("planted: disk on fire")
	j, _, err := openOwned(t, t.TempDir(), Options{
		TestInjectErr: func(op string) error {
			if op == failOp {
				return planted
			}
			return nil
		},
	}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	check := func(op string, call func() error) {
		t.Helper()
		failOp = op
		err := call()
		if !errors.Is(err, planted) {
			t.Fatalf("%s under injection: err = %v, want the planted error", op, err)
		}
		failOp = ""
		if err := call(); err != nil {
			t.Fatalf("%s after injection cleared: %v", op, err)
		}
	}
	n := int64(0)
	check("append", func() error {
		n++
		return j.Append(&Batch{Submits: []RoutineRecord{submitRec(n)}})
	})
	check("commit", j.Commit)
	check("checkpoint", func() error {
		return j.Checkpoint(&Checkpoint{LSN: j.LSN(), FirstSeq: 1})
	})
}

// TestCheckpointHeadRoundTrip: a checkpoint file is a head frame then the
// image frame. Open recovers the head's devices beside the image;
// PublishHead replaces the head and keeps the image byte for byte; a head
// whose LSN disagrees with its image, or a torn head, fails recovery instead
// of being trusted.
func TestCheckpointHeadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	devices := device.Plugs(2).All()
	j, _, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}, FirstSeq: 4, Events: []EventRecord{{Kind: 1}, {Kind: 2}}}); err != nil {
		t.Fatal(err)
	}
	rec := []RoutineRecord{finishRec(1, visibility.StatusCommitted)}
	if err := j.Checkpoint(&Checkpoint{Routines: rec, FirstSeq: 4, Events: []EventRecord{{Kind: 1}, {Kind: 2}}, Head: Head{Devices: devices}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	image := func() []byte {
		buf, err := os.ReadFile(filepath.Join(dir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		if clean, _ := scanFrames(buf, func(p []byte) error { frames = append(frames, p); return nil }); !clean || len(frames) != 2 {
			t.Fatalf("checkpoint file holds %d frames (clean %v), want a head and an image", len(frames), clean)
		}
		return frames[1]
	}
	before := image()
	if strings.Contains(string(before), `"devices"`) {
		t.Fatalf("the image repeats the head: %s", before)
	}

	j, got, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got == nil || got.LSN != 1 || len(got.Routines) != 1 || !slices.Equal(got.Devices, devices) || got.Replayed != 0 {
		t.Fatalf("recovered %+v", got)
	}

	if err := PublishHead(dir, Head{Home: "h", Devices: devices[:1], Frozen: &FrozenHome{Model: "EV", NextSeq: 6}}); err != nil {
		t.Fatal(err)
	}
	if after := image(); string(after) != string(before) {
		t.Fatalf("PublishHead rewrote the image:\n   %s\nwas\n   %s", after, before)
	}
	w, err := openLog(t, dir, ModeSync, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	head, err := ReadHead(dir, func(string) *GroupWriter { return w })
	w.Close()
	if err != nil || head.LSN != 1 || head.Home != "h" || !slices.Equal(head.Devices, devices[:1]) || head.Frozen == nil || head.Frozen.NextSeq != 6 {
		t.Fatalf("ReadHead after PublishHead = %+v, %v", head, err)
	}

	// A head that does not match its image, and a torn head.
	buf, _ := os.ReadFile(filepath.Join(dir, checkpointName))
	mismatched, _ := json.Marshal(Head{LSN: 7, Home: "h"})
	for name, file := range map[string][]byte{
		"mismatched": appendFrame(appendFrame(nil, mismatched), image()),
		"torn":       buf[:frameHeaderLen+3],
	} {
		if err := os.WriteFile(filepath.Join(dir, checkpointName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, _, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{}); err == nil {
			j.Close()
			t.Fatalf("%s head: Open recovered", name)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), buf[:frameHeaderLen+3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHead(dir, nil); err == nil {
		t.Fatal("ReadHead accepted a torn head")
	}
}
