package manager

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// hibernatingManager builds a virtual-clock manager with hibernation
// enabled but a threshold long enough that nothing freezes on its own —
// tests drive FreezeHome/FreezeIdle explicitly for determinism.
func hibernatingManager(dir string) *Manager {
	return New(Config{
		Shards:         2,
		DataDir:        dir,
		HibernateAfter: time.Hour,
		Home:           HomeConfig{Model: visibility.EV},
	})
}

// TestColdRegistrationCostsNoRuntime: with hibernation on, AddHome registers
// a fresh home frozen — no loop goroutine, no journal descriptor — and the
// first touch builds it. This is the cheap half of "millions of registered
// homes in one process".
func TestColdRegistrationCostsNoRuntime(t *testing.T) {
	m := hibernatingManager(t.TempDir())
	defer m.Close()
	if err := m.AddHome("attic", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	st, err := m.HomeStatus("attic")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != rt.HealthFrozen {
		t.Fatalf("cold-added home health = %s, want frozen", st.Health)
	}
	if st.Devices != 2 {
		t.Fatalf("cold status lost the fleet: %+v", st)
	}
	if got := m.Status(); got.Homes != 1 || got.Frozen != 1 {
		t.Fatalf("Status = %d homes / %d frozen, want 1/1", got.Homes, got.Frozen)
	}
	// First touch wakes it and it serves like any home.
	if _, err := m.Submit("attic", durableRoutine(0)); err != nil {
		t.Fatalf("submit to cold home: %v", err)
	}
	if st, _ := m.HomeStatus("attic"); st.Health != rt.HealthOK {
		t.Fatalf("woken home health = %s, want ok", st.Health)
	}
	if got := m.Status(); got.Frozen != 0 {
		t.Fatalf("Status still counts %d frozen after wake", got.Frozen)
	}
}

// TestFreezeWakeExactThroughManager: everything acknowledged before a
// freeze comes back exactly through the manager API, and the intermediate
// frozen state is fully visible in Status/HomeStatus without waking.
func TestFreezeWakeExactThroughManager(t *testing.T) {
	m := hibernatingManager(t.TempDir())
	defer m.Close()
	if err := m.AddHome("den", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := m.Submit("den", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := m.Results("den")
	if err != nil {
		t.Fatal(err)
	}

	if err := m.FreezeHome("den"); err != nil {
		t.Fatalf("FreezeHome: %v", err)
	}
	st, err := m.HomeStatus("den")
	if err != nil {
		t.Fatal(err)
	}
	if st.Health != rt.HealthFrozen || st.Routines != 6 || st.FrozenAt.IsZero() {
		t.Fatalf("frozen status = %+v", st)
	}
	// Freezing a frozen home is a no-op, not an error.
	if err := m.FreezeHome("den"); err != nil {
		t.Fatalf("re-freeze: %v", err)
	}

	after, err := m.Results("den") // wakes
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("woke with %d results, froze with %d", len(after), len(before))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].Status != after[i].Status {
			t.Fatalf("result %d changed across freeze/wake: %+v vs %+v", i, before[i], after[i])
		}
	}
	// The woken home keeps serving with a continuous ID sequence.
	rid, err := m.Submit("den", durableRoutine(7))
	if err != nil {
		t.Fatal(err)
	}
	if rid != routine.ID(len(before)+1) {
		t.Fatalf("post-wake routine ID = %d, want %d", rid, len(before)+1)
	}
}

// TestStatusNeverWakesFrozenHomes: the no-wake reporting satellite. Every
// fleet-level read — Status, Homes, HomeStatus — answers for a frozen home
// from its resident record and leaves it frozen.
func TestStatusNeverWakesFrozenHomes(t *testing.T) {
	m := hibernatingManager(t.TempDir())
	defer m.Close()
	ids, err := m.AddHomes("cabin", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := m.Submit(id, durableRoutine(1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.FreezeIdle(0); n != 4 {
		t.Fatalf("FreezeIdle froze %d homes, want 4", n)
	}
	for round := 0; round < 3; round++ {
		if got := m.Status(); got.Frozen != 4 {
			t.Fatalf("round %d: Status.Frozen = %d, want 4", round, got.Frozen)
		}
		for _, hs := range m.Homes() {
			if hs.Health != rt.HealthFrozen {
				t.Fatalf("round %d: home %s health = %s after a status read", round, hs.ID, hs.Health)
			}
			if hs.Routines != 1 {
				t.Fatalf("round %d: frozen record of %s reports %d routines", round, hs.ID, hs.Routines)
			}
		}
		for _, id := range ids {
			if hs, _ := m.HomeStatus(id); hs.Health != rt.HealthFrozen {
				t.Fatalf("round %d: HomeStatus woke %s", round, id)
			}
		}
	}
}

// TestRecoverHomesKeepsHibernatedHomesCold: a restart over a data dir of
// cleanly hibernated homes re-registers them frozen — a million-home fleet
// boots without a million journal recoveries — while a home that closed or
// crashed live (its checkpoint carries no summary) recovers live so its
// aborts surface.
func TestRecoverHomesKeepsHibernatedHomesCold(t *testing.T) {
	dir := t.TempDir()
	m := hibernatingManager(dir)
	if err := m.AddHome("cold", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHome("warm", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("cold", durableRoutine(0)); err != nil {
		t.Fatal(err)
	}
	if err := m.FreezeHome("cold"); err != nil {
		t.Fatal(err)
	}
	// "warm" stays live through the manager Close: its final checkpoint
	// carries no summary — the crashed-live shape.
	if _, err := m.Submit("warm", durableRoutine(1)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := hibernatingManager(dir)
	defer m2.Close()
	recovered, err := m2.RecoverHomes()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %v, want both homes", recovered)
	}
	if hs, _ := m2.HomeStatus("cold"); hs.Health != rt.HealthFrozen || hs.Routines != 1 {
		t.Fatalf("hibernated home rebooted as %+v, want frozen with its record", hs)
	}
	if hs, _ := m2.HomeStatus("warm"); hs.Health != rt.HealthOK {
		t.Fatalf("live-closed home rebooted as %s, want live recovery", hs.Health)
	}
	res, err := m2.Results("cold") // wake
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Status != visibility.StatusCommitted {
		t.Fatalf("woke hibernated home with %+v", res)
	}
}

// TestWokenHomeStaysFrozenUntilItAppends: a wake writes nothing, so a crash
// after the wake but before the home's first append brings it back cold
// with identical state; once it appends, a crash brings it back live.
func TestWokenHomeStaysFrozenUntilItAppends(t *testing.T) {
	dir := t.TempDir()
	m := hibernatingManager(dir)
	if err := m.AddHome("den", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("den", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m.Results("den")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FreezeHome("den"); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	for round := 0; round < 2; round++ {
		m = hibernatingManager(dir)
		if _, err := m.RecoverHomes(); err != nil {
			t.Fatal(err)
		}
		if hs, _ := m.HomeStatus("den"); hs.Health != rt.HealthFrozen || hs.Routines != 3 {
			t.Fatalf("round %d: rebooted as %+v, want frozen with 3 routines", round, hs)
		}
		got, err := m.Results("den") // wake
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: woke with %d results, froze with %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Status != want[i].Status || !got[i].Finished.Equal(want[i].Finished) {
				t.Fatalf("round %d: result %d woke as %+v, froze as %+v", round, i, got[i], want[i])
			}
		}
		m.Crash()
	}

	m = hibernatingManager(dir)
	if _, err := m.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("den", durableRoutine(3)); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m = hibernatingManager(dir)
	defer m.Close()
	if _, err := m.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	if hs, _ := m.HomeStatus("den"); hs.Health != rt.HealthOK || hs.Routines != 4 {
		t.Fatalf("a home that appended after its wake rebooted as %+v, want live with 4 routines", hs)
	}
}

// TestFrozenTriggerFiresOnTime: the deadline-heap satellite. A frozen home
// with a scheduled trigger is reanimated by the manager's waker at the
// trigger deadline — nobody touches the home — and the trigger fires.
func TestFrozenTriggerFiresOnTime(t *testing.T) {
	m := New(Config{
		Shards:         1,
		DataDir:        t.TempDir(),
		Clock:          ClockLive,
		pumpInterval:   5 * time.Millisecond,
		HibernateAfter: time.Hour, // automatic sweep stays out of the way
		Home:           HomeConfig{Model: visibility.EV},
	})
	defer m.Close()
	if err := m.AddHome("alarm", device.Plugs(1).All()...); err != nil {
		t.Fatal(err)
	}
	home, err := m.Runtime("alarm") // wake the cold registration to arm it
	if err != nil {
		t.Fatal(err)
	}
	if err := home.StoreRoutine(routine.New("wakeup", routine.Command{Device: "plug-0", Target: device.On})); err != nil {
		t.Fatal(err)
	}
	if _, err := home.ScheduleAfter("wakeup", 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.FreezeHome("alarm"); err != nil {
		t.Fatal(err)
	}
	if hs, _ := m.HomeStatus("alarm"); hs.Health != rt.HealthFrozen || hs.NextFire.IsZero() {
		t.Fatalf("frozen status lost the deadline: %+v", hs)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		hs, err := m.HomeStatus("alarm")
		if err != nil {
			t.Fatal(err)
		}
		if hs.Health == rt.HealthOK && hs.Routines >= 1 {
			break // the waker reanimated it and the trigger submitted
		}
		if time.Now().After(deadline) {
			t.Fatalf("trigger never fired from hibernation: %+v", hs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		results, err := m.Results("alarm")
		if err != nil {
			t.Fatal(err)
		}
		if len(results) == 1 && results[0].Status == visibility.StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trigger fired but never committed: %+v", results)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleSweepFreezesUnderLiveClock: the automatic freezer hibernates a
// home that goes quiet past HibernateAfter without any explicit call.
func TestIdleSweepFreezesUnderLiveClock(t *testing.T) {
	m := New(Config{
		Shards:         1,
		DataDir:        t.TempDir(),
		Clock:          ClockLive,
		pumpInterval:   5 * time.Millisecond,
		HibernateAfter: 50 * time.Millisecond,
		Home:           HomeConfig{Model: visibility.EV},
	})
	defer m.Close()
	if err := m.AddHome("nap", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("nap", durableRoutine(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hs, _ := m.HomeStatus("nap"); hs.Health == rt.HealthFrozen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle home never hibernated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And it still answers exactly after the sweep put it to sleep.
	res, err := m.Results("nap")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("woke with %d results, want 1", len(res))
	}
}

// TestSubmitRacingFreezeNeverLosesWork: a submit that catches the home
// mid-freeze (runtime closed under it) retries once through the wake path;
// across many freeze/submit races every acknowledged submit survives.
func TestSubmitRacingFreezeNeverLosesWork(t *testing.T) {
	m := hibernatingManager(t.TempDir())
	defer m.Close()
	if err := m.AddHome("race", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.FreezeHome("race") // racing: may interleave anywhere
		}()
		if _, err := m.Submit("race", durableRoutine(i)); err != nil {
			t.Fatalf("submit %d lost to the freeze race: %v", i, err)
		}
	}
	wg.Wait()
	res, err := m.Results("race")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != rounds {
		t.Fatalf("acknowledged %d submits, woke with %d results", rounds, len(res))
	}
	for i, r := range res {
		if r.Status != visibility.StatusCommitted && r.Status != visibility.StatusAborted {
			t.Fatalf("result %d in state %s after freeze races", i, r.Status)
		}
	}
}

// TestHibernationRequiresDataDir: the knob silently disables without a data
// directory — nothing durable to wake from — and explicit freezes refuse.
func TestHibernationRequiresDataDir(t *testing.T) {
	m := New(Config{Shards: 1, HibernateAfter: time.Minute, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if m.hibernating() {
		t.Fatal("memory-only manager believes it can hibernate")
	}
	if err := m.AddHome("ram", device.Plugs(1).All()...); err != nil {
		t.Fatal(err)
	}
	if hs, _ := m.HomeStatus("ram"); hs.Health != rt.HealthOK {
		t.Fatalf("memory-only home health = %s", hs.Health)
	}
	if err := m.FreezeHome("ram"); err == nil {
		t.Fatal("froze a memory-only home")
	}
	if n := m.FreezeIdle(0); n != 0 {
		t.Fatalf("FreezeIdle froze %d memory-only homes", n)
	}
}

// TestSubmitOutlastsStaleFreezers: the freeze race, with the window held
// open. Eight freezers keep re-freezing the home while one submit is in
// flight, and the submitted routine is big enough that validating it takes
// longer than a freezer needs to close the generation the submit just woke —
// so the submit keeps finding its generation closed under it. Each pass
// through the wake path must yield the next generation until one accepts
// the routine; a single retry (the old behaviour) lets ErrClosed escape.
func TestSubmitOutlastsStaleFreezers(t *testing.T) {
	m := hibernatingManager(t.TempDir())
	defer m.Close()
	if err := m.AddHome("race", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	slow := routine.New("slow-to-validate")
	for i := 0; i < 40_000; i++ {
		slow.Commands = append(slow.Commands, routine.Command{Device: device.ID(fmt.Sprintf("plug-%d", i%3)), Target: device.On})
	}
	const submits, freezers = 3, 8
	for i := 0; i < submits; i++ {
		if _, err := m.Submit("race", durableRoutine(i)); err != nil { // a live generation for the freezers to close
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for f := 0; f < freezers; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 6; n++ { // bounded: the submit must win once they run out
					select {
					case <-stop:
						return
					default:
						_ = m.FreezeHome("race")
					}
				}
			}()
		}
		_, err := m.Submit("race", slow)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("submit %d lost to %d stale freezers: %v", i, freezers, err)
		}
	}
	res, err := m.Results("race")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*submits {
		t.Fatalf("acknowledged %d submits, woke with %d results", 2*submits, len(res))
	}
}

// TestTipPollDoesNotWakeFrozenHome: a poller that has seen everything keeps
// polling a hibernated home at its cursor. That must be answered from the
// frozen summary — an empty page, the same cursor — without a wake, also
// after a restart; a poller that is behind still wakes the home and gets
// its events.
func TestTipPollDoesNotWakeFrozenHome(t *testing.T) {
	cfg := Config{Shards: 1, DataDir: t.TempDir(), HibernateAfter: time.Hour, EventLog: 64,
		Home: HomeConfig{Model: visibility.EV}}
	m := New(cfg)
	defer m.Close()
	if err := m.AddHome("den", device.Plugs(3).All()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("den", durableRoutine(i)); err != nil {
			t.Fatal(err)
		}
	}
	live, tip, err := m.Events("den", 0)
	if err != nil || len(live) == 0 || tip != uint64(len(live))+1 {
		t.Fatalf("live poll: %d events, next %d, err %v", len(live), tip, err)
	}
	if err := m.FreezeHome("den"); err != nil {
		t.Fatal(err)
	}
	wakes := m.tel.wakes.Value()

	for _, since := range []uint64{tip, tip + 5, math.MaxUint64} {
		ev, next, err := m.Events("den", since)
		if err != nil || len(ev) != 0 || next != tip {
			t.Fatalf("tip poll since=%d: %d events, next %d (want %d), err %v", since, len(ev), next, tip, err)
		}
		visited := 0
		next, err = m.RangeEvents("den", since, func(uint64, *visibility.Event) { visited++ })
		if err != nil || visited != 0 || next != tip {
			t.Fatalf("tip range since=%d: %d events, next %d (want %d), err %v", since, visited, next, tip, err)
		}
	}
	if st := m.Status(); st.Frozen != 1 {
		t.Fatalf("tip polls woke the home: %d frozen", st.Frozen)
	}
	if got := m.tel.wakes.Value(); got != wakes {
		t.Fatalf("tip polls ran %v wakes", got-wakes)
	}

	// One event behind the tip: the home wakes and serves it, cursor intact.
	ev, next, err := m.Events("den", tip-1)
	if err != nil || len(ev) != 1 || next != tip || ev[0] != live[len(live)-1] {
		t.Fatalf("behind-the-tip poll: %d events, next %d, err %v", len(ev), next, err)
	}
	if st := m.Status(); st.Frozen != 0 {
		t.Fatal("behind-the-tip poll did not wake the home")
	}
	if got := m.tel.wakes.Value(); got != wakes+1 {
		t.Fatalf("behind-the-tip poll ran %v wakes, want 1", got-wakes)
	}

	// After a restart, the summary in the checkpoint's head answers too.
	if err := m.FreezeHome("den"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m2 := New(cfg)
	defer m2.Close()
	if _, err := m2.RecoverHomes(); err != nil {
		t.Fatal(err)
	}
	if ev, next, err := m2.Events("den", tip); err != nil || len(ev) != 0 || next != tip {
		t.Fatalf("tip poll after a restart: %d events, next %d (want %d), err %v", len(ev), next, tip, err)
	}
	if st := m2.Status(); st.Frozen != 1 {
		t.Fatal("a tip poll after a restart woke the home")
	}
}
