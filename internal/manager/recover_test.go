package manager

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

func durableManager(dir string) *Manager {
	return New(Config{
		Shards:   2,
		DataDir:  dir,
		EventLog: 32,
		Home:     HomeConfig{Model: visibility.EV},
	})
}

func durableRoutine(n int) *routine.Routine {
	r := routine.New(fmt.Sprintf("r-%d", n))
	r.Commands = append(r.Commands,
		routine.Command{Device: device.ID(fmt.Sprintf("plug-%d", n%3)), Target: device.On},
		routine.Command{Device: device.ID(fmt.Sprintf("plug-%d", (n+1)%3)), Target: device.Off},
	)
	return r
}

// TestManagerRecoversAllHomesOnBoot: a durable manager persists home
// metadata and journals; a fresh manager over the same data dir rediscovers
// every home with its history and keeps serving it.
func TestManagerRecoversAllHomesOnBoot(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	ids, err := m.AddHomes("home", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[HomeID]int)
	for i, id := range ids {
		for k := 0; k <= i; k++ { // home-i gets i+1 routines
			if _, err := m.Submit(id, durableRoutine(k)); err != nil {
				t.Fatal(err)
			}
			want[id]++
		}
	}
	m.Close()

	m2 := durableManager(dir)
	defer m2.Close()
	recovered, err := m2.RecoverHomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(ids) {
		t.Fatalf("recovered %d homes, want %d (%v)", len(recovered), len(ids), recovered)
	}
	for id, n := range want {
		results, err := m2.Results(id)
		if err != nil {
			t.Fatalf("home %s lost: %v", id, err)
		}
		if len(results) != n {
			t.Fatalf("home %s recovered %d results, want %d", id, len(results), n)
		}
		for _, res := range results {
			if res.Status != visibility.StatusCommitted {
				t.Fatalf("home %s routine %d recovered as %s", id, res.ID, res.Status)
			}
		}
		// The home keeps serving: the ID sequence continues.
		rid, err := m2.Submit(id, durableRoutine(9))
		if err != nil {
			t.Fatal(err)
		}
		if rid != routine.ID(n+1) {
			t.Fatalf("home %s post-recovery ID = %d, want %d", id, rid, n+1)
		}
	}
	// RecoverHomes is idempotent on a warm manager.
	again, err := m2.RecoverHomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second RecoverHomes recovered %v", again)
	}
}

// TestManagerRecoversCrashedHome kills one home's runtime without a graceful
// drain; a fresh manager recovers it from its journal tail.
func TestManagerRecoversCrashedHome(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	if err := m.AddHome("casa", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := m.Submit("casa", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	home, err := m.Runtime("casa")
	if err != nil {
		t.Fatal(err)
	}
	states := home.CommittedStates()
	home.Crash()
	m.Close() // idempotent over the crashed home

	m2 := durableManager(dir)
	defer m2.Close()
	if _, err := m2.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	results, err := m2.Results("casa")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("recovered %d results, want 7", len(results))
	}
	rec, err := m2.Runtime("casa")
	if err != nil {
		t.Fatal(err)
	}
	for d, s := range states {
		if got, _ := rec.Snapshot().CommittedState(d); got != s {
			t.Fatalf("committed state of %s = %q, want %q", d, got, s)
		}
	}
}

// TestDotHomeIDsRejected: "." and ".." survive path escaping unchanged and
// would resolve into (or above) the homes/ root, so they are invalid IDs.
func TestDotHomeIDsRejected(t *testing.T) {
	m := durableManager(t.TempDir())
	defer m.Close()
	for _, id := range []HomeID{".", ".."} {
		if err := m.AddHome(id, device.Plugs(1).All()...); err == nil {
			t.Fatalf("AddHome(%q) succeeded", id)
		}
	}
}

// TestHomeIDsArePathEscaped: tenant-chosen IDs with path separators must not
// escape the manager's data directory.
func TestHomeIDsArePathEscaped(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	id := HomeID("../../evil/home")
	if err := m.AddHome(id, device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(id, durableRoutine(0)); err != nil {
		t.Fatal(err)
	}
	m.Close() // release the home's journal lock before the successor opens it

	m2 := durableManager(dir)
	defer m2.Close()
	recovered, err := m2.RecoverHomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != id {
		t.Fatalf("recovered %v, want [%q]", recovered, id)
	}
}

// TestCrashedHomeRecoversLiveUnderEveryTier: a home that crashed before its
// first checkpoint has nothing in its own directory — its state is its tail
// in the shard's log — and a hibernating manager must still recover it live
// rather than register it cold as a home that never ran: full history,
// healthy, and a client polling at its cursor keeps that cursor.
func TestCrashedHomeRecoversLiveUnderEveryTier(t *testing.T) {
	for _, mode := range []journal.Mode{journal.ModeSync, journal.ModeGroup, journal.ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Shards: 2, DataDir: t.TempDir(), HibernateAfter: time.Hour, EventLog: 64,
				Journal: journal.Options{Mode: mode}, Home: HomeConfig{Model: visibility.EV}}
			m := New(cfg)
			if err := m.AddHome("casa", device.Plugs(3).All()...); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := m.Submit("casa", durableRoutine(i)); err != nil {
					t.Fatal(err)
				}
			}
			_, tip, err := m.Events("casa", 0)
			if err != nil || tip < 2 {
				t.Fatalf("live poll: next %d, err %v", tip, err)
			}
			home, err := m.Runtime("casa")
			if err != nil {
				t.Fatal(err)
			}
			home.Crash()
			m.Close()

			m2 := New(cfg)
			defer m2.Close()
			if _, err := m2.RecoverHomes(); err != nil {
				t.Fatal(err)
			}
			st, err := m2.HomeStatus("casa")
			if err != nil || st.Health != rt.HealthOK || st.Routines != 3 {
				t.Fatalf("recovered status = %+v, err %v; want health ok with 3 routines", st, err)
			}
			ev, next, err := m2.Events("casa", tip)
			if err != nil || len(ev) != 0 || next != tip {
				t.Fatalf("tip poll after recovery: %d events, next %d (want %d), err %v", len(ev), next, tip, err)
			}
			if got := m2.tel.wakes.Value(); got != 0 {
				t.Fatalf("crashed home was registered cold: %v wakes", got)
			}
		})
	}
}

// crashAll kills every home of m without a graceful drain, then closes m.
func crashAll(t *testing.T, m *Manager) {
	t.Helper()
	for _, st := range m.Homes() {
		home, err := m.Runtime(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		home.Crash()
	}
	m.Close()
}

// TestConcurrentAddHomeReservesTheID: shard.add builds a home with the shard
// unlocked, so the ID is reserved while it builds. Eight AddHome calls for a
// durable home with history, racing RecoverHomes, must build it exactly once
// — everyone else gets ErrDuplicateHome — and after another crash the home
// recovers its whole acknowledged history: no second journal ever recovered
// it and closed over the winner's checkpoint with an older one.
func TestConcurrentAddHomeReservesTheID(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	if _, err := m.AddHomes("home", 6, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Submit("home-0", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	crashAll(t, m)

	m2 := durableManager(dir)
	const racers = 8
	var (
		start     = make(chan struct{})
		wg        sync.WaitGroup
		errs      = make(chan error, racers)
		recovered []HomeID
		recErr    error
	)
	wg.Add(racers + 1)
	go func() {
		defer wg.Done()
		<-start
		recovered, recErr = m2.RecoverHomes()
	}()
	for i := 0; i < racers; i++ {
		go func() {
			defer wg.Done()
			<-start
			errs <- m2.AddHome("home-0", device.Plugs(3).All()...)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	if recErr != nil {
		t.Fatal(recErr)
	}
	builds := 0
	for _, id := range recovered {
		if id == "home-0" {
			builds++
		}
	}
	for err := range errs {
		switch {
		case err == nil:
			builds++
		case !errors.Is(err, ErrDuplicateHome):
			t.Fatalf("racing AddHome: %v", err)
		}
	}
	if builds != 1 {
		t.Fatalf("home-0 was built %d times, want exactly once", builds)
	}
	if results, err := m2.Results("home-0"); err != nil || len(results) != 5 {
		t.Fatalf("home-0 recovered %d routines (err %v), want 5", len(results), err)
	}
	for i := 5; i < 8; i++ {
		if _, err := m2.Submit("home-0", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	crashAll(t, m2)

	m3 := durableManager(dir)
	defer m3.Close()
	if _, err := m3.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	results, err := m3.Results("home-0")
	if err != nil || len(results) != 8 {
		t.Fatalf("home-0 recovered %d routines after the second crash (err %v), want all 8", len(results), err)
	}
	for _, res := range results {
		if res.Status != visibility.StatusCommitted {
			t.Fatalf("routine %d recovered as %s", res.ID, res.Status)
		}
	}
}

// TestRecoverHomesStopsAtFirstError: a home directory whose record does not
// decode fails RecoverHomes; the homes recovered before the failure come back
// with the error, sorted and serving.
func TestRecoverHomesStopsAtFirstError(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	if _, err := m.AddHomes("home", 4, 2); err != nil {
		t.Fatal(err)
	}
	m.Close()
	bad := filepath.Join(dir, "homes", "broken")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "checkpoint.ckpt"), []byte("torn checkpoint garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := durableManager(dir)
	defer m2.Close()
	recovered, err := m2.RecoverHomes()
	if err == nil {
		t.Fatal("RecoverHomes accepted an undecodable record")
	}
	if !sort.SliceIsSorted(recovered, func(i, j int) bool { return recovered[i] < recovered[j] }) {
		t.Fatalf("recovered IDs %v are not sorted", recovered)
	}
	for _, id := range recovered {
		if _, err := m2.Results(id); err != nil {
			t.Fatalf("reported home %s does not serve: %v", id, err)
		}
	}
}

// TestManagerWithoutFleetUsesPrivateLogs: when the writer fleet cannot open
// (here: a file squats on <DataDir>/wal) the manager still starts, reports
// the failure, and every home journals into a private log under its own
// directory — durable across a restart in the same condition.
func TestManagerWithoutFleetUsesPrivateLogs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := durableManager(dir)
	if st := m.Status(); st.DurabilityError == "" {
		t.Fatal("fleet opened over a squatting file")
	}
	if err := m.AddHome("casa", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Submit("casa", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	home, err := m.Runtime("casa")
	if err != nil {
		t.Fatal(err)
	}
	if !home.Durable() {
		t.Fatalf("home is not durable without the fleet: %v", home.JournalError())
	}
	home.Crash()
	m.Close()

	m2 := durableManager(dir)
	defer m2.Close()
	if _, err := m2.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	if results, err := m2.Results("casa"); err != nil || len(results) != 4 {
		t.Fatalf("recovered %d results from the private log, err %v; want 4", len(results), err)
	}
}

// TestConcurrentAddHomeWithDifferentFleetsRecovers: two AddHome calls for one
// new ID race with different fleets. Exactly one wins, and only the winner
// publishes the home's durable record, so after a crash RecoverHomes brings
// the home back with the winner's fleet — never a torn record, never the
// loser's devices.
func TestConcurrentAddHomeWithDifferentFleetsRecovers(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		dir := t.TempDir()
		m := durableManager(dir)
		fleets := []int{3, 5}
		errs := make([]error, len(fleets))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, n := range fleets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = m.AddHome("h", device.Plugs(n).All()...)
			}()
		}
		close(start)
		wg.Wait()
		winner := -1
		for i, err := range errs {
			switch {
			case err == nil && winner < 0:
				winner = i
			case err == nil || !errors.Is(err, ErrDuplicateHome):
				t.Fatalf("trial %d: AddHome results %v, want one success and one ErrDuplicateHome", trial, errs)
			}
		}
		if winner < 0 {
			t.Fatalf("trial %d: no AddHome succeeded: %v", trial, errs)
		}
		m.Crash()

		m2 := durableManager(dir)
		ids, err := m2.RecoverHomes()
		if err != nil || len(ids) != 1 {
			m2.Close()
			t.Fatalf("trial %d: RecoverHomes = %v, %v", trial, ids, err)
		}
		st, err := m2.HomeStatus("h")
		m2.Close()
		if err != nil || st.Devices != fleets[winner] {
			t.Fatalf("trial %d: recovered %d devices (err %v), the winning AddHome had %d", trial, st.Devices, err, fleets[winner])
		}
	}
}

// TestReAddedHomeRecoversItsNewFleet: a home re-added after a crash with a
// different fleet keeps the new fleet across the next crash, along with the
// history it recovered.
func TestReAddedHomeRecoversItsNewFleet(t *testing.T) {
	dir := t.TempDir()
	m := durableManager(dir)
	if err := m.AddHome("h", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("h", durableRoutine(0)); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	m2 := durableManager(dir)
	if err := m2.AddHome("h", device.Plugs(5).All()...); err != nil {
		t.Fatal(err)
	}
	m2.Crash()

	m3 := durableManager(dir)
	defer m3.Close()
	if _, err := m3.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	st, err := m3.HomeStatus("h")
	if err != nil || st.Devices != 5 || st.Routines != 1 {
		t.Fatalf("re-added home recovered as %+v (err %v), want 5 devices and 1 routine", st, err)
	}
}
