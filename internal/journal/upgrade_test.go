package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syncEra is an upgrade fixture of this package: a data directory an older
// build wrote, the home directory in it and the image that build recovered.
type syncEra struct {
	name       string // under testdata
	data, home string // relative to the fixture's directory
	lsn        uint64 // the LSN expected.json recovers at
	replayed   int    // log records Open replays above the folded checkpoint
}

var syncEras = []syncEra{
	// A checkpoint at LSN 12 with no head, one sealed chunk and three
	// non-empty wal-*.seg files up to LSN 18, the newest ending in a torn
	// frame; see generate_test.go.txt there.
	{name: "sync-era", data: "home", home: ".", lsn: 18},
	// The same home after a build with the fleet log reopened it: record 19
	// lies in data/wal, above the wal-*.seg files.
	{name: "sync-era-reopened", data: "data", home: "home", lsn: 19, replayed: 1},
}

// copy copies the fixture's data directory somewhere writable and returns
// the copy's root and home directory.
func (f syncEra) copy(t *testing.T) (root, home string) {
	t.Helper()
	root = filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(root, os.DirFS(filepath.Join("testdata", f.name, f.data))); err != nil {
		t.Fatal(err)
	}
	return root, filepath.Join(root, f.home)
}

// upgradeSteps plans the upgrade of the home directory dir as home "h".
func upgradeSteps(t *testing.T, dir string) []func() error {
	t.Helper()
	steps, err := UpgradeHome(dir, "h", FrozenHome{})
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// upgrade runs the whole upgrade of dir and requires it to leave no file of
// an older format behind and nothing for a rerun to do.
func upgrade(t *testing.T, dir string) {
	t.Helper()
	for _, step := range upgradeSteps(t, dir) {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if left := legacyNames(t, dir); len(left) != 0 {
		t.Fatalf("the upgrade left %v", left)
	}
	if again := upgradeSteps(t, dir); len(again) != 0 {
		t.Fatalf("a rerun of a finished upgrade plans %d steps", len(again))
	}
}

// legacyNames lists the files of dir only an older build wrote.
func legacyNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "wal-") || n == "journal.lock" || n == "home.json" || n == "frozen.json" {
			names = append(names, n)
		}
	}
	return names
}

// checkSyncEraImage opens the upgraded home directory home through a fleet
// rooted at root and requires exactly the image the writing build
// recovered, then an append that continues the home's LSNs.
func checkSyncEraImage(t *testing.T, f syncEra, root, home string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", f.name, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := openLog(t, root, ModeSync, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j, rec, err := Open(home, Options{HomeID: "h", Writer: w})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec == nil {
		t.Fatal("Open recovered nothing from the upgraded directory")
	}
	if rec.Replayed != f.replayed {
		t.Fatalf("Open replayed %d records above the folded checkpoint, want %d", rec.Replayed, f.replayed)
	}
	got, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("recovered image differs from the one the writing build recovered:\n%s", got)
	}
	b := &Batch{Submits: []RoutineRecord{submitRec(19)}}
	if err := j.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if b.LSN != f.lsn+1 {
		t.Fatalf("first LSN after the upgrade = %d, want %d", b.LSN, f.lsn+1)
	}
}

// TestSyncEraDirectoryUpgrades: the sync-era home directory converts into
// one headed checkpoint at LSN 18 (the wal-*.seg records folded in, the
// files gone), which Open recovers, without replaying anything, into exactly
// the image the writing build recovered — through a fleet rooted in the
// home's directory and through one shared with other homes alike.
func TestSyncEraDirectoryUpgrades(t *testing.T) {
	f := syncEras[0]
	for _, name := range []string{"fleet-in-home-dir", "shared"} {
		t.Run(name, func(t *testing.T) {
			_, dir := f.copy(t)
			root := dir
			if name == "shared" {
				root = t.TempDir()
			}
			upgrade(t, dir)
			h, err := ReadHead(dir, nil)
			if err != nil || h == nil || h.Home != "h" || h.LSN != 18 || h.Devices != nil || h.Frozen != nil {
				t.Fatalf("head of the upgraded directory = %+v, %v; want home h at LSN 18", h, err)
			}
			checkSyncEraImage(t, f, root, dir)
			if left := legacyNames(t, dir); len(left) != 0 {
				t.Fatalf("Open wrote %v", left)
			}
		})
	}
}

// TestSyncEraReopenedDirectoryUpgrades: a sync-era home that a build with
// the fleet log already reopened holds its checkpoint at LSN 12, wal-*.seg
// records up to 18 and record 19 in the log. The upgrade folds the segments
// at the checkpoint level, never through the log: Open then replays record
// 19 on top of LSN 18 and recovers the writing build's image byte for byte.
// (Open on the unconverted directory would meet checkpoint 12 followed by
// record 19, and cut 13–19 as a rotten branch.)
func TestSyncEraReopenedDirectoryUpgrades(t *testing.T) {
	f := syncEras[1]
	root, home := f.copy(t)
	upgrade(t, home)
	if h, err := ReadHead(home, nil); err != nil || h == nil || h.LSN != 18 {
		t.Fatalf("head of the upgraded directory = %+v, %v; want LSN 18", h, err)
	}
	checkSyncEraImage(t, f, root, home)
}

// TestUpgradeHomeCrashAtEachStep: an upgrade that a crash stops after any
// of its durable steps is finished by the next one, and the directory
// recovers the fixture's image as if it had never stopped.
func TestUpgradeHomeCrashAtEachStep(t *testing.T) {
	for _, f := range syncEras {
		_, home := f.copy(t)
		n := len(upgradeSteps(t, home))
		if n != 4 {
			t.Fatalf("%s: %d upgrade steps, want a publish and three deletes", f.name, n)
		}
		for k := 1; k < n; k++ {
			t.Run(fmt.Sprintf("%s/after-%d", f.name, k), func(t *testing.T) {
				root, home := f.copy(t)
				for _, step := range upgradeSteps(t, home)[:k] {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				upgrade(t, home)
				checkSyncEraImage(t, f, root, home)
			})
		}
	}
}

// TestCheckpointWithoutAHeadIsRefused: outside the upgrade, an image with no
// head frame is a corrupt checkpoint.
func TestCheckpointWithoutAHeadIsRefused(t *testing.T) {
	dir := t.TempDir()
	buf, err := os.ReadFile(filepath.Join("testdata", "sync-era", "home", checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(dir, checkpointName, buf); err != nil {
		t.Fatal(err)
	}
	if h, err := ReadHead(dir, nil); err == nil {
		t.Fatalf("ReadHead accepted a checkpoint with no head: %+v", h)
	}
	if _, _, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{}); err == nil {
		t.Fatal("Open accepted a checkpoint with no head")
	}
}

// TestOpenIgnoresStrayLegacySegments: Open, a checkpoint and ReadHead
// neither read nor delete a wal-*.seg file in a current home directory.
func TestOpenIgnoresStrayLegacySegments(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Batch{Submits: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(&Checkpoint{Routines: []RoutineRecord{submitRec(1)}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	payload, _ := json.Marshal(&Batch{LSN: 2, Submits: []RoutineRecord{submitRec(2)}})
	stray := "wal-0000000000000002.seg"
	if err := writeFile(dir, stray, appendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
	j, rec, err := openOwned(t, dir, Options{HomeID: "h"}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 1 || len(rec.Routines) != 1 {
		t.Fatalf("recovered %d routines at LSN %d; the stray segment was read", len(rec.Routines), rec.LSN)
	}
	if err := j.Checkpoint(&Checkpoint{Routines: rec.Routines}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got, err := os.ReadFile(filepath.Join(dir, stray)); err != nil || !bytes.Equal(got, appendFrame(nil, payload)) {
		t.Fatalf("the stray segment was changed or deleted (%v)", err)
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
	if segs := segmentFiles(t, dir); len(segs) != 1 {
		t.Fatalf("five idle opens left %d segment files: %v", len(segs), segs)
	}
}
