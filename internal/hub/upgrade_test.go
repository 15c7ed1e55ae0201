package hub

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/manager"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// testdata/hub-era is a crashed durable hub's data directory as the hub
// wrote it before it became a one-home manager: checkpoint.ckpt, a sealed
// chunk and poison.json at the root, the log tail under wal/. expected.json
// is what that build recovered from it; generate_test.go.txt regenerates
// both (it only compiles against that build).

// hubEraCopy copies the fixture's data directory somewhere writable.
func hubEraCopy(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "hub-era", "data"))); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openHubEra opens a hub on dir with the fixture's configuration.
func openHubEra(t *testing.T, dir string) *manager.Manager {
	t.Helper()
	reg := device.Plugs(3)
	m, err := New(Config{Model: visibility.EV, DefaultShort: time.Millisecond, FailureInterval: time.Hour, DataDir: dir},
		reg, device.NewFleet(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// hubEraImage is what a hub recovers from the fixture: results, the
// committed device view, the event window with its cursor, the bank, the
// armed triggers and the last poison's message. Times are UTC so the image
// does not depend on the local zone.
type hubEraImage struct {
	Results    []resultView               `json:"results"`
	States     map[device.ID]device.State `json:"states"`
	Events     []eventView                `json:"events"`
	Next       uint64                     `json:"next"`
	Bank       []string                   `json:"bank"`
	Triggers   []ScheduledTrigger         `json:"triggers"`
	LastPoison string                     `json:"last_poison"`
}

func hubEraImageOf(t *testing.T, m *manager.Manager) hubEraImage {
	t.Helper()
	home := gen(t, m)
	img := hubEraImage{Results: resultsJSON(home.Results()), States: map[device.ID]device.State{}}
	for i := range img.Results {
		r := &img.Results[i]
		r.Submitted, r.Started, r.Finished = r.Submitted.UTC(), r.Started.UTC(), r.Finished.UTC()
	}
	devices, err := DevicesOf(m, Home)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		img.States[d.Info.ID] = d.State
	}
	img.Next = home.RangeEventsSince(0, func(seq uint64, e *visibility.Event) {
		v := eventJSON(seq, e)
		v.Time = v.Time.UTC()
		img.Events = append(img.Events, v)
	})
	img.Bank = home.Bank().Names()
	sort.Strings(img.Bank)
	for _, tr := range home.Triggers() {
		tr.NextFire = tr.NextFire.UTC()
		img.Triggers = append(img.Triggers, tr)
	}
	sort.Slice(img.Triggers, func(i, j int) bool { return img.Triggers[i].Handle < img.Triggers[j].Handle })
	st, err := StatusOf(m, Home)
	if err != nil {
		t.Fatal(err)
	}
	if p := st.LastPoison; p != nil {
		img.LastPoison = p.Message
	}
	return img
}

// checkHubEraImage requires m to serve exactly the image the hub-era build
// recovered from the fixture.
func checkHubEraImage(t *testing.T, m *manager.Manager) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "hub-era", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(hubEraImageOf(t, m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(0, i-200)
		t.Fatalf("recovered image differs from expected.json at byte %d:\ngot:  …%s…\nwant: …%s…",
			i, got[from:min(len(got), i+200)], want[from:min(len(want), i+200)])
	}
}

// TestHubEraDirectoryUpgrades: a hub-era data directory opens on the
// one-home manager layout. The per-home artifacts move under homes/hub, the
// recovered results, committed states, events, cursor, bank, triggers and
// poison forensics are the old build's exactly, the next append continues
// the home's log, and a second crash and reopen recovers it.
func TestHubEraDirectoryUpgrades(t *testing.T) {
	dir := hubEraCopy(t)
	m := openHubEra(t, dir)
	checkHubEraImage(t, m)
	for _, name := range []string{"checkpoint.ckpt", "ckchunk-00000000.ckpt", "poison.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s is still at the data-dir root (stat: %v)", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "homes", "hub", name)); err != nil {
			t.Errorf("%s did not move under homes/hub: %v", name, err)
		}
	}

	id, err := m.Submit(Home, routine.New("after-upgrade", routine.Command{Device: "plug-0", Target: device.On}))
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, m)
	m.Crash()

	for round := 0; round < 2; round++ {
		m = openHubEra(t, dir)
		results, err := m.Results(Home)
		if err != nil || len(results) != 306 || id != 306 {
			t.Fatalf("round %d: %d results (err %v), new routine id %d; want 306 and 306", round, len(results), err, id)
		}
		if res, ok, err := m.Result(Home, id); err != nil || !ok || res.Status != visibility.StatusCommitted {
			t.Fatalf("round %d: routine appended after the upgrade = %+v, %v, %v; want committed", round, res, ok, err)
		}
		m.Crash()
	}
}

// TestHalfMovedHubEraDirectoryUpgrades: an upgrade a crash cut short — the
// sealed chunk already under homes/hub, the checkpoint still at the root —
// finishes on the next open and recovers the same image.
func TestHalfMovedHubEraDirectoryUpgrades(t *testing.T) {
	dir := hubEraCopy(t)
	home := filepath.Join(dir, "homes", "hub")
	if err := os.MkdirAll(home, 0o755); err != nil {
		t.Fatal(err)
	}
	const chunk = "ckchunk-00000000.ckpt"
	if err := os.Rename(filepath.Join(dir, chunk), filepath.Join(home, chunk)); err != nil {
		t.Fatal(err)
	}
	m := openHubEra(t, dir)
	defer m.Crash()
	checkHubEraImage(t, m)
	if _, err := os.Stat(filepath.Join(home, "checkpoint.ckpt")); err != nil {
		t.Errorf("checkpoint did not move under homes/hub: %v", err)
	}
}
