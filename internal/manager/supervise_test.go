package manager

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
	rt "safehome/internal/runtime"
	"safehome/internal/visibility"
)

// fastSupervisor keeps restart latency test-friendly.
func fastSupervisor() rt.SupervisorConfig {
	return rt.SupervisorConfig{Backoff: 2 * time.Millisecond, BackoffCap: 20 * time.Millisecond}
}

func panicHome(t *testing.T, m *Manager, id HomeID) {
	t.Helper()
	home, err := m.Runtime(id)
	if err != nil {
		t.Fatalf("Runtime(%s): %v", id, err)
	}
	home.PostTimer(func() { panic("test: injected fault") })
}

// waitRestarted waits until the home has completed at least one supervised
// restart and serves healthy again. Polling for HealthOK alone would race:
// the home starts out ok, so the poll could win before the poison lands.
func waitRestarted(t *testing.T, m *Manager, id HomeID) { waitRestarts(t, m, id, 1) }

// waitRestarts waits until the home has completed n supervised restarts and
// serves healthy again.
func waitRestarts(t *testing.T, m *Manager, id HomeID, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.HomeStatus(id)
		if err != nil {
			t.Fatalf("HomeStatus(%s): %v", id, err)
		}
		if st.Restarts >= n && st.Health == rt.HealthOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("home %s never reached %d restarts: health=%s restarts=%d", id, n, st.Health, st.Restarts)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitHealth(t *testing.T, m *Manager, id HomeID, want rt.HomeHealth) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.HomeStatus(id)
		if err != nil {
			t.Fatalf("HomeStatus(%s): %v", id, err)
		}
		if st.Health == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("home %s health = %s, want %s", id, st.Health, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanickedHomeRestartsFromJournal(t *testing.T) {
	m := New(Config{Shards: 1, DataDir: t.TempDir(), Supervisor: fastSupervisor(), Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	ids, err := m.AddHomes("h", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	victim, bystander := ids[0], ids[1]

	rid, err := m.Submit(victim, plugRoutine("acked", device.On, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	panicHome(t, m, victim)
	waitRestarted(t, m, victim)

	// The restarted home recovered its acknowledged work from the journal.
	res, ok, err := m.Result(victim, rid)
	if err != nil || !ok || res.Status != visibility.StatusCommitted {
		t.Errorf("post-restart Result = %+v, %v, %v; want the pre-panic commit", res, ok, err)
	}
	if _, err := m.Submit(victim, plugRoutine("fresh", device.Off, 2)); err != nil {
		t.Errorf("Submit to restarted home: %v", err)
	}
	st, err := m.HomeStatus(victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restarts < 1 {
		t.Errorf("victim restarts = %d, want >= 1", st.Restarts)
	}

	// The bystander on the same shard was untouched.
	if _, err := m.Submit(bystander, plugRoutine("calm", device.On, 0)); err != nil {
		t.Errorf("Submit to bystander during/after restart: %v", err)
	}
	bst, err := m.HomeStatus(bystander)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Health != rt.HealthOK || bst.Restarts != 0 {
		t.Errorf("bystander health=%s restarts=%d, want ok/0", bst.Health, bst.Restarts)
	}

	status := m.Status()
	if status.Poisons < 1 || status.Restarts < 1 {
		t.Errorf("manager totals poisons=%d restarts=%d, want >= 1 each", status.Poisons, status.Restarts)
	}
}

func TestMemoryOnlyHomeRestartsEmptyButAlive(t *testing.T) {
	m := New(Config{Shards: 1, Supervisor: fastSupervisor(), Home: HomeConfig{Model: visibility.EV}}) // no DataDir
	defer m.Close()
	ids, err := m.AddHomes("h", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	if _, err := m.Submit(id, plugRoutine("lost", device.On, 0)); err != nil {
		t.Fatal(err)
	}
	panicHome(t, m, id)
	waitRestarted(t, m, id)

	results, err := m.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("memory-only home recovered %d results, want a fresh empty home", len(results))
	}
	if _, err := m.Submit(id, plugRoutine("fresh", device.On, 1)); err != nil {
		t.Errorf("Submit to restarted memory-only home: %v", err)
	}
}

func TestRestartingHomeRejectsUntilServing(t *testing.T) {
	// A long backoff holds the home in "restarting" so the rejection window
	// is observable; other homes keep serving throughout.
	m := New(Config{Shards: 1, Supervisor: rt.SupervisorConfig{
		Backoff: 300 * time.Millisecond, BackoffCap: 300 * time.Millisecond}})
	defer m.Close()
	ids, err := m.AddHomes("h", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	panicHome(t, m, ids[0])

	deadline := time.Now().Add(5 * time.Second)
	sawRestarting := false
	for !sawRestarting {
		if time.Now().After(deadline) {
			t.Fatal("never observed the restarting window")
		}
		_, err := m.Runtime(ids[0])
		if errors.Is(err, ErrRestarting) {
			sawRestarting = true
		}
		time.Sleep(time.Millisecond)
	}
	st, err := m.HomeStatus(ids[0])
	if err != nil {
		t.Fatalf("HomeStatus during restart: %v", err)
	}
	if st.Health != rt.HealthRestarting {
		t.Errorf("health during backoff = %s, want restarting", st.Health)
	}
	if st.LastError == "" {
		t.Error("restarting home reports no last_error")
	}
	if _, err := m.Submit(ids[1], plugRoutine("calm", device.On, 0)); err != nil {
		t.Errorf("bystander submit during restart: %v", err)
	}
	waitRestarted(t, m, ids[0])
}

// TestQuarantineAfterRestartBudget spends the restart budget: five
// consecutive poisons (each within the healthy window of the last) are
// restarted, the sixth quarantines the home.
func TestQuarantineAfterRestartBudget(t *testing.T) {
	m := New(Config{Shards: 1, Supervisor: rt.SupervisorConfig{Backoff: time.Millisecond, BackoffCap: time.Millisecond}})
	defer m.Close()
	ids, err := m.AddHomes("h", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	for n := 1; n <= 5; n++ {
		panicHome(t, m, id)
		waitRestarts(t, m, id, int64(n))
	}
	panicHome(t, m, id)
	waitHealth(t, m, id, rt.HealthQuarantined)

	if _, err := m.Runtime(id); !errors.Is(err, ErrQuarantined) {
		t.Errorf("Runtime on quarantined home = %v, want ErrQuarantined", err)
	}
	if _, err := m.Submit(id, plugRoutine("refused", device.On, 0)); !errors.Is(err, ErrQuarantined) {
		t.Errorf("Submit to quarantined home = %v, want ErrQuarantined", err)
	}
	// The quarantined home still shows up in listings with its state.
	st, err := m.HomeStatus(id)
	if err != nil {
		t.Fatalf("HomeStatus on quarantined home: %v", err)
	}
	if st.Health != rt.HealthQuarantined || st.Restarts != 5 {
		t.Errorf("health = %s after %d restarts, want quarantined after 5", st.Health, st.Restarts)
	}
	status := m.Status()
	if status.Quarantined != 1 {
		t.Errorf("Status.Quarantined = %d, want 1", status.Quarantined)
	}
}

func TestSupervisionDisabledLeavesHomeDown(t *testing.T) {
	m := New(Config{Shards: 1, Supervisor: rt.SupervisorConfig{Disable: true}})
	defer m.Close()
	ids, err := m.AddHomes("h", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	home, err := m.Runtime(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	home.PostTimer(func() { panic("test: unsupervised fault") })
	deadline := time.Now().Add(5 * time.Second)
	for !home.Poisoned() {
		if time.Now().After(deadline) {
			t.Fatal("panic never poisoned the home")
		}
		time.Sleep(time.Millisecond)
	}
	// No supervisor: the home stays down and mutations keep failing.
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Submit(ids[0], plugRoutine("down", device.On, 0)); err == nil {
		t.Error("Submit to an unsupervised poisoned home succeeded")
	}
}

// TestPoisonForensicsSurfaceAndClear: a panic's forensics (message + stack)
// surface in the home's Status as last_poison and persist to the home dir's
// poison.json; a clean supervised restart retires both — the operator sees
// *why* the home died for exactly as long as the symptom is unresolved.
func TestPoisonForensicsSurfaceAndClear(t *testing.T) {
	dir := t.TempDir()

	// Supervision off: the poison stays visible instead of being healed away.
	m := New(Config{Shards: 1, DataDir: dir, Supervisor: rt.SupervisorConfig{Disable: true}})
	id := HomeID("victim")
	if err := m.AddHome(id, device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	home, err := m.Runtime(id)
	if err != nil {
		t.Fatal(err)
	}
	home.PostTimer(func() { panic("test: forensic fault") })
	deadline := time.Now().Add(5 * time.Second)
	for home.PoisonRecord() == nil {
		if time.Now().After(deadline) {
			t.Fatal("panic never produced a poison record")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := m.HomeStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPoison == nil || !strings.Contains(st.LastPoison.Message, "forensic fault") || st.LastPoison.Stack == "" {
		t.Fatalf("HomeStatus.LastPoison = %+v, want the panic's message and stack", st.LastPoison)
	}
	// The record is published in memory before it is persisted: give the
	// write the same deadline instead of racing it.
	for rt.LoadPoisonRecord(filepath.Join(dir, "homes", string(id))) == nil {
		if time.Now().After(deadline) {
			t.Fatal("poison.json missing from the home's data dir")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()

	// A fresh manager over the same data sees the record before any restart
	// (the forensics survive the process), and a clean supervised restart
	// clears it.
	m2 := New(Config{Shards: 1, DataDir: dir, Supervisor: fastSupervisor(), Home: HomeConfig{Model: visibility.EV}})
	defer m2.Close()
	if recovered, err := m2.RecoverHomes(); err != nil || len(recovered) != 1 {
		t.Fatalf("RecoverHomes = %v, %v; want the victim back", recovered, err)
	}
	st, err = m2.HomeStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPoison == nil {
		t.Fatal("restarted manager lost the persisted poison record")
	}
	panicHome(t, m2, id)
	waitRestarted(t, m2, id)
	// The restart reports healthy a moment before it retires the record.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st, err = m2.HomeStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := rt.LoadPoisonRecord(filepath.Join(dir, "homes", string(id)))
		if st.LastPoison == nil && rec == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after a clean supervised restart: LastPoison = %+v, poison.json = %+v; want both gone", st.LastPoison, rec)
		}
		time.Sleep(time.Millisecond)
	}
}
