package manager

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"safehome/internal/device"
	"safehome/internal/journal"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// countDataDirFDs counts this process's open file descriptors that resolve
// into dir (journal segments, locks, checkpoints).
func countDataDirFDs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	n := 0
	for _, e := range entries {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err != nil {
			continue
		}
		if strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestJournalFDsScaleWithShardsNotHomes is the fd-bounding guarantee of the
// one journal layout: a manager running many journaled homes holds one
// active segment (plus one shared lock) per shard in every tier — sync
// included, which used to hold a segment and a lock per home and so capped
// tenant counts. 1000 homes on 4 shards must stay within a few fds of
// 2*shards, not anywhere near O(homes).
func TestJournalFDsScaleWithShardsNotHomes(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting reads /proc/self/fd")
	}
	if testing.Short() {
		t.Skip("builds 1000 journaled homes")
	}
	const shards, homes = 4, 1000
	for _, mode := range []journal.Mode{journal.ModeSync, journal.ModeGroup, journal.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := New(Config{
				Shards:     shards,
				DataDir:    dir,
				Journal:    journal.Options{Mode: mode},
				Supervisor: rt.SupervisorConfig{Disable: true},
				Home:       HomeConfig{Model: visibility.EV},
			})
			defer m.Close()
			if st := m.Status(); st.DurabilityError != "" || st.Durability != mode.String() {
				t.Fatalf("writer fleet degraded: tier %s, %s", st.Durability, st.DurabilityError)
			}
			if _, err := m.AddHomes("home", homes, 1); err != nil {
				t.Fatal(err)
			}
			// Drive a few homes so segments are genuinely live, not lazily absent.
			for i := 0; i < shards; i++ {
				id := HomeID(fmt.Sprintf("home-%d", i))
				if _, err := m.Submit(id, plugRoutine("probe", device.On, 0)); err != nil {
					t.Fatalf("submit to %s: %v", id, err)
				}
			}
			got := countDataDirFDs(t, dir)
			if limit := 2*shards + 4; got > limit {
				t.Errorf("open fds under %s = %d with %d homes, want <= %d (O(shards), not O(homes))", dir, got, homes, limit)
			}
		})
	}
}
