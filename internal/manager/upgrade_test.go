package manager

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
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
// the records were published but before the legacy files were deleted is
// finished by the next boot, into the same image.
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
