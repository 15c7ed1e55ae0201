package manager

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// testdata/marker-era is a crashed hibernating manager's data directory as
// the manager wrote it while a home's durable state was spread over
// home.json, frozen.json and the checkpoint: three frozen homes (one marker
// edited by hand to drop next_seq, one with a trigger a century out), one
// home that crashed live and one that never ran. expected.json is the image
// that build served from it; generate_test.go.txt regenerates both (it only
// compiles against that build).

// markerEraManager is the configuration the fixture was written and is read
// with: live clock, hibernation on (a threshold long enough that only
// FreezeHome freezes), an event log.
func markerEraManager(dir string) *Manager {
	return New(Config{
		Shards:         2,
		Clock:          ClockLive,
		DataDir:        dir,
		EventLog:       32,
		HibernateAfter: time.Hour,
		Home:           HomeConfig{Model: visibility.EV, DefaultShort: time.Millisecond},
	})
}

// markerEraCopy copies the fixture's data directory somewhere writable.
func markerEraCopy(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "marker-era", "data"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkMarkerEraImage requires m to serve exactly the image the marker-era
// build served from the fixture. Reading the image wakes every home.
func checkMarkerEraImage(t *testing.T, m *Manager) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "marker-era", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(homeImages(t, m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("served image differs from expected.json:\n%s", got)
	}
}

// legacyFiles lists the home.json and frozen.json files under dir.
func legacyFiles(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && (d.Name() == "home.json" || d.Name() == "frozen.json") {
			found = append(found, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestMarkerEraDirectoryUpgrades: a marker-era data directory boots into
// one record per home. Every home's checkpoint gets a head naming it and
// its devices, the frozen homes' summaries move into it (the hand-edited
// marker's cursor filled from the checkpoint), home.json and frozen.json
// are gone, the homes register cold or live as that build registered them,
// and they serve that build's image. A crash after the wakes, before any
// home appends, boots into the same image again.
func TestMarkerEraDirectoryUpgrades(t *testing.T) {
	dir := markerEraCopy(t)
	m := markerEraManager(dir)
	ids, err := m.RecoverHomes()
	if err != nil {
		t.Fatal(err)
	}
	if want := []HomeID{"fresh", "frozen-a", "frozen-old", "frozen-trigger", "live-crashed"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered %v, want %v", ids, want)
	}
	if left := legacyFiles(t, dir); len(left) != 0 {
		t.Fatalf("the upgrade left %v", left)
	}
	for _, id := range ids {
		head, err := journal.ReadHead(HomeDir(dir, id), m.writerFor)
		if err != nil || head == nil || head.Home != string(id) || !reflect.DeepEqual(head.Devices, device.Plugs(3).All()) {
			t.Fatalf("record of %s = %+v, %v", id, head, err)
		}
	}
	// frozen-old's marker had no cursor: the upgrade took the checkpoint's,
	// so a tip poll is answered without a wake.
	if ev, next, err := m.Events("frozen-old", 13); err != nil || len(ev) != 0 || next != 13 {
		t.Fatalf("tip poll of frozen-old: %d events, next %d, err %v", len(ev), next, err)
	}
	if st := m.Status(); st.Frozen != 4 {
		t.Fatalf("%d homes frozen after the tip poll, want 4", st.Frozen)
	}
	checkMarkerEraImage(t, m)
	m.Crash()

	m = markerEraManager(dir)
	defer m.Crash()
	if _, err := m.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	checkMarkerEraImage(t, m)
}

// TestHalfUpgradedMarkerEraDirectoryConverges: an upgrade a crash cut after
// the records were published but before the legacy files were deleted (and
// so before the format generation was written) is finished by the next
// boot, into the same image.
func TestHalfUpgradedMarkerEraDirectoryConverges(t *testing.T) {
	dir := markerEraCopy(t)
	m := markerEraManager(dir)
	if _, err := m.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	fixture := filepath.Join("testdata", "marker-era", "data")
	for _, path := range legacyFiles(t, fixture) {
		rel, _ := filepath.Rel(fixture, path)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, formatFile)); err != nil {
		t.Fatal(err)
	}

	m = markerEraManager(dir)
	defer m.Crash()
	if _, err := m.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	if left := legacyFiles(t, dir); len(left) != 0 {
		t.Fatalf("the rerun left %v", left)
	}
	checkMarkerEraImage(t, m)
}

// stopUpgradeAfter makes the upgrade stop, as a crash would, after its k-th
// durable step (never for k < 0) and counts the steps it ran into *ran.
func stopUpgradeAfter(t *testing.T, k int, ran *int) {
	t.Helper()
	*ran = 0
	afterUpgradeStep = func() error {
		*ran++
		if *ran == k {
			return errors.New("upgrade stopped")
		}
		return nil
	}
	t.Cleanup(func() { afterUpgradeStep = nil })
}

// upgradeSteps counts the durable steps the upgrade of a fresh copy of a
// fixture takes.
func upgradeSteps(t *testing.T, copyFixture func(*testing.T) string) int {
	t.Helper()
	var n int
	stopUpgradeAfter(t, -1, &n)
	m := New(Config{Shards: 1, DataDir: copyFixture(t)})
	m.Crash()
	afterUpgradeStep = nil
	if m.writerErr != nil {
		t.Fatal(m.writerErr)
	}
	return n
}

// TestMarkerEraUpgradeCrashAtEachStep: an upgrade of the marker-era fixture
// stopped after any of its durable steps leaves a directory the manager
// refuses, and the next boot finishes the upgrade and serves the fixture's
// image with no legacy file left.
func TestMarkerEraUpgradeCrashAtEachStep(t *testing.T) {
	n := upgradeSteps(t, markerEraCopy)
	// Five homes: five checkpoints published, eight legacy files deleted;
	// then the generation.
	if n != 14 {
		t.Fatalf("the marker-era upgrade takes %d steps, want 14", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			dir := markerEraCopy(t)
			var ran int
			stopUpgradeAfter(t, k, &ran)
			m := markerEraManager(dir)
			if _, err := m.RecoverHomes(); err == nil || ran != k {
				t.Fatalf("a manager whose upgrade stopped after step %d/%d recovered homes (%v)", ran, k, err)
			}
			m.Crash()
			afterUpgradeStep = nil

			m = markerEraManager(dir)
			defer m.Crash()
			if _, err := m.RecoverHomes(); err != nil {
				t.Fatal(err)
			}
			if left := legacyFiles(t, dir); len(left) != 0 {
				t.Fatalf("the upgrade left %v", left)
			}
			checkMarkerEraImage(t, m)
		})
	}
}

// hubEraCopy copies the hub package's hub-era fixture somewhere writable:
// checkpoint.ckpt, a sealed chunk and poison.json at the data-dir root.
func hubEraCopy(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "hub", "testdata", "hub-era", "data"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// durableFiles reads every file under dir outside the log tree.
func durableFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == "wal" {
				return filepath.SkipDir
			}
			return err
		}
		buf, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestHubEraUpgradeCrashAtEachStep: an upgrade of the hub-era fixture
// stopped after any of its durable steps is finished by the next boot into
// exactly the files an upgrade that never stopped writes — the files
// TestHubEraDirectoryUpgrades (internal/hub) serves the fixture's image
// from.
func TestHubEraUpgradeCrashAtEachStep(t *testing.T) {
	boot := func(dir string) {
		m := New(Config{Shards: 1, DataDir: dir})
		m.Crash()
		if m.writerErr != nil {
			t.Fatal(m.writerErr)
		}
	}
	want := hubEraCopy(t)
	boot(want)
	wantFiles := durableFiles(t, want)
	if _, ok := wantFiles[filepath.Join("homes", "hub", "checkpoint.ckpt")]; !ok || len(wantFiles) != 4 {
		t.Fatalf("the upgraded hub-era directory holds %d files", len(wantFiles))
	}
	n := upgradeSteps(t, hubEraCopy)
	// Three moves (poison record, chunk, checkpoint), the checkpoint's new
	// head, the generation.
	if n != 5 {
		t.Fatalf("the hub-era upgrade takes %d steps, want 5", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			dir := hubEraCopy(t)
			var ran int
			stopUpgradeAfter(t, k, &ran)
			m := New(Config{Shards: 1, DataDir: dir})
			m.Crash()
			if m.writerErr == nil || ran != k {
				t.Fatalf("the upgrade stopped after step %d, want %d (%v)", ran, k, m.writerErr)
			}
			afterUpgradeStep = nil
			boot(dir)
			if got := durableFiles(t, dir); !reflect.DeepEqual(got, wantFiles) {
				t.Fatalf("files after a stop at step %d differ from an upgrade that never stopped", k)
			}
		})
	}
}

// TestNewerFormatGenerationIsRefused: a data directory a newer build wrote
// is refused by AddHome and RecoverHomes with an error naming its
// generation, and no file of it changes.
func TestNewerFormatGenerationIsRefused(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Shards: 2, DataDir: dir})
	for _, id := range []HomeID{"a", "b"} {
		if err := m.AddHome(id, device.Plugs(2).All()...); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(id, routine.New("r", routine.Command{Device: "plug-0", Target: device.On})); err != nil {
			t.Fatal(err)
		}
	}
	m.Crash()
	if err := os.WriteFile(filepath.Join(dir, formatFile), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := allFiles(t, dir)

	m = New(Config{Shards: 2, DataDir: dir})
	defer m.Crash()
	if err := m.AddHome("c", device.Plugs(2).All()...); err == nil || !strings.Contains(err.Error(), "generation 2") {
		t.Fatalf("AddHome on a newer data directory: %v", err)
	}
	if ids, err := m.RecoverHomes(); err == nil || len(ids) != 0 || !strings.Contains(err.Error(), "generation 2") {
		t.Fatalf("RecoverHomes on a newer data directory: %v, %v", ids, err)
	}
	m.Crash()
	after := allFiles(t, dir)
	for path, buf := range before {
		if after[path] != buf {
			t.Errorf("%s changed", path)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok && !strings.HasPrefix(path, "wal"+string(filepath.Separator)) {
			t.Errorf("%s appeared", path)
		}
	}
}

// allFiles reads every file under dir.
func allFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStrayLegacyFilesAreIgnored: in a current data directory, a wal-*.seg
// file that would continue a home's history, a home.json naming other
// devices and a frozen.json are neither read nor deleted, and the home
// recovers the image it had.
func TestStrayLegacyFilesAreIgnored(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, DataDir: dir}
	m := New(cfg)
	if err := m.AddHome("casa", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("casa", routine.New(fmt.Sprintf("r%d", i), routine.Command{Device: "plug-0", Target: device.On})); err != nil {
			t.Fatal(err)
		}
	}
	want := homeImages(t, m)
	m.Close()

	home := HomeDir(dir, "casa")
	ws, err := journal.OpenWriters(filepath.Join(dir, "wal"), 1, journal.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	head, err := journal.ReadHead(home, func(string) *journal.GroupWriter { return ws[0] })
	ws[0].Close()
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := json.Marshal(&journal.Batch{LSN: head.LSN + 1, Submits: []journal.RoutineRecord{{ID: 4, Name: "stray", Status: "waiting"}}})
	frame := make([]byte, 8, 8+len(batch))
	binary.LittleEndian.PutUint32(frame, uint32(len(batch)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(batch, crc32.MakeTable(crc32.Castagnoli)))
	stray := map[string]string{
		fmt.Sprintf("wal-%016x.seg", head.LSN+1): string(append(frame, batch...)),
		"home.json":                              `{"id":"casa","devices":[{"id":"plug-9","name":"stray","kind":"plug"}]}`,
		"frozen.json":                            `{"model":"EV","routines":9,"next_seq":1}`,
	}
	for name, buf := range stray {
		if err := os.WriteFile(filepath.Join(home, name), []byte(buf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m = New(cfg)
	defer m.Close()
	if ids, err := m.RecoverHomes(); err != nil || !reflect.DeepEqual(ids, []HomeID{"casa"}) {
		t.Fatalf("RecoverHomes = %v, %v", ids, err)
	}
	if got := homeImages(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("the stray files changed the image:\n got %+v\nwant %+v", got, want)
	}
	for name, buf := range stray {
		if got, err := os.ReadFile(filepath.Join(home, name)); err != nil || string(got) != buf {
			t.Errorf("stray %s was deleted or rewritten (%v)", name, err)
		}
	}
}
