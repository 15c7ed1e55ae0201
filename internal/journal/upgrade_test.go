package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"safehome/internal/visibility"
)

// copyDir copies the flat directory src into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSyncEraDirectoryUpgrades opens a data directory written by the last
// commit that had a per-home segment layout (testdata/sync-era: checkpoint,
// one sealed chunk, three non-empty wal-*.seg files, the newest ending in a
// torn frame; see generate_test.go.txt there). Through a fleet rooted in
// the home's directory and through one shared with other homes alike it must
// recover exactly the image that commit recovered (expected.json), take
// appends, never write a wal-*.seg, and hold none after the next checkpoint.
func TestSyncEraDirectoryUpgrades(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sync-era", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fleet-in-home-dir", "shared"} {
		t.Run(name, func(t *testing.T) {
			dir := copyDir(t, filepath.Join("testdata", "sync-era", "home"))
			root := dir
			if name == "shared" {
				root = t.TempDir()
			}
			w, err := openLog(t, root, ModeSync, WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{HomeID: "h", Writer: w}
			if h, err := ReadHead(dir, func(string) *GroupWriter { return w }); err != nil || h == nil || h.Home != "" || h.LSN != 12 {
				t.Fatalf("ReadHead of a sync-era directory = %+v, %v; want a head with no home at LSN 12", h, err)
			}
			legacy := legacySegments(dir)
			sizes := make(map[string]int64)
			for _, seg := range legacy {
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				sizes[seg] = info.Size()
			}

			j, rec, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			// A sync-era checkpoint has no head.
			if rec.Devices != nil || rec.Replayed != 6 {
				t.Fatalf("recovered devices %v after replaying %d records; want none after 6", rec.Devices, rec.Replayed)
			}
			got, err := json.MarshalIndent(rec, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(got, '\n'), want) {
				t.Fatalf("recovered image differs from the one the writing commit recovered:\n%s", got)
			}
			if rec.NextSeq() != 36 || rec.LSN != 18 || len(rec.Routines) != 18 || !rec.Routines[17].Open() {
				t.Fatalf("recovered cursor %d, LSN %d, %d routines", rec.NextSeq(), rec.LSN, len(rec.Routines))
			}

			// Appends continue the LSN sequence in the log, not in wal-*.seg.
			b := &Batch{Finishes: []RoutineRecord{finishRec(18, visibility.StatusCommitted)}}
			if err := j.Append(b); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
			if b.LSN != 19 {
				t.Fatalf("post-upgrade LSN = %d, want 19", b.LSN)
			}
			if now := legacySegments(dir); len(now) != len(legacy) {
				t.Fatalf("legacy segments changed: %v -> %v", legacy, now)
			}
			for seg, size := range sizes {
				if info, err := os.Stat(seg); err != nil || info.Size() != size {
					t.Fatalf("legacy segment %s was written to (err %v)", seg, err)
				}
			}
			j.Abandon()
			w.Abandon()

			// A crash before the first checkpoint replays legacy segments, then
			// the log.
			if opts.Writer, err = openLog(t, root, ModeSync, WriterOptions{}); err != nil {
				t.Fatal(err)
			}
			j, rec, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer opts.Writer.Close()
			defer j.Close()
			if rec == nil || rec.LSN != 19 || rec.Routines[17].Open() {
				t.Fatalf("second recovery did not replay legacy segments then the log: %v", rec != nil)
			}
			ck := &Checkpoint{Sealed: rec.Sealed, SealSize: rec.SealSize, Routines: rec.Routines[rec.Sealed:], FirstSeq: rec.FirstSeq, Events: rec.Events}
			if err := j.Checkpoint(ck); err != nil {
				t.Fatal(err)
			}
			if left := legacySegments(dir); len(left) != 0 {
				t.Fatalf("checkpoint left legacy segments: %v", left)
			}
		})
	}
}

// TestReadHeadSeesTheLog: a home is frozen while its checkpoint carries a
// summary and nothing of it lies above that checkpoint — in this epoch's
// active segment or a dead epoch's tail. ReadHead reports the summary of a
// frozen home only.
func TestReadHeadSeesTheLog(t *testing.T) {
	root := t.TempDir()
	wal, dirA, dirB := filepath.Join(root, "wal"), filepath.Join(root, "a"), filepath.Join(root, "b")
	ws, err := OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frozen := func(dir string, w *GroupWriter) bool {
		t.Helper()
		h, err := ReadHead(dir, func(string) *GroupWriter { return w })
		if err != nil || h == nil {
			t.Fatalf("ReadHead(%s) = %v, %v", dir, h, err)
		}
		return h.Frozen != nil
	}
	if h, err := ReadHead(dirA, func(string) *GroupWriter { return ws[0] }); h != nil || err != nil {
		t.Fatalf("ReadHead of a directory with no checkpoint = %v, %v", h, err)
	}
	for _, home := range []string{"a", "b"} {
		if err := PublishHead(filepath.Join(root, home), Head{Home: home, Frozen: &FrozenHome{Model: "EV"}}); err != nil {
			t.Fatal(err)
		}
	}
	if !frozen(dirA, ws[0]) || !frozen(dirB, ws[0]) {
		t.Fatal("a summary with nothing above it is not frozen")
	}
	j, _ := openGroupJournal(t, dirA, "a", ws[0])
	if !frozen(dirA, ws[0]) {
		t.Fatal("opening the journal thawed the home")
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if frozen(dirA, ws[0]) || !frozen(dirB, ws[0]) {
		t.Fatal("ReadHead does not follow the active segment's homes")
	}
	j.Abandon()
	ws[0].Abandon()

	ws, err = OpenWriters(wal, 1, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws[0].Close()
	if frozen(dirA, ws[0]) || !frozen(dirB, ws[0]) {
		t.Fatal("ReadHead does not follow the dead epoch's tails")
	}
	// A checkpoint carrying a summary above every record freezes it again.
	j, rec := openGroupJournal(t, dirA, "a", ws[0])
	if err := j.Checkpoint(&Checkpoint{Routines: rec.Routines, Head: Head{Frozen: &FrozenHome{Model: "EV"}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !frozen(dirA, ws[0]) {
		t.Fatal("a checkpoint with a summary above the home's records is not frozen")
	}
}

// TestEmptyEpochsAreCollected: an epoch that appended nothing leaves no file
// behind once the next boot has scanned it.
func TestEmptyEpochsAreCollected(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		j, _, err := openOwned(t, dir, Options{}, WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	if segs := SegmentFiles(dir); len(segs) != 1 {
		t.Fatalf("five idle opens left %d segment files: %v", len(segs), segs)
	}
}
