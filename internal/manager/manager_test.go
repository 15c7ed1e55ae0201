package manager

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

func plugRoutine(name string, target device.State, plugs ...int) *routine.Routine {
	r := routine.New(name)
	for _, p := range plugs {
		r.Commands = append(r.Commands, routine.Command{
			Device:   device.ID(fmt.Sprintf("plug-%d", p)),
			Target:   target,
			Duration: time.Minute,
		})
	}
	return r
}

func TestShardRoutingDeterministic(t *testing.T) {
	m := New(Config{Shards: 4, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()

	seen := make(map[int]int)
	for i := 0; i < 256; i++ {
		id := HomeID(fmt.Sprintf("home-%d", i))
		first := m.ShardOf(id)
		for rep := 0; rep < 3; rep++ {
			if got := m.ShardOf(id); got != first {
				t.Fatalf("ShardOf(%q) flapped: %d then %d", id, first, got)
			}
		}
		if first < 0 || first >= m.NumShards() {
			t.Fatalf("ShardOf(%q) = %d, outside [0,%d)", id, first, m.NumShards())
		}
		seen[first]++
	}
	// FNV over 256 IDs must reach every shard (distribution sanity, not
	// uniformity).
	for s := 0; s < m.NumShards(); s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d received no homes out of 256", s)
		}
	}
}

func TestShardRoutingMatchesPlacement(t *testing.T) {
	m := New(Config{Shards: 8, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	ids, err := m.AddHomes("home", 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range m.Homes() {
		if st.Shard != m.ShardOf(st.ID) {
			t.Errorf("home %q placed on shard %d, ShardOf says %d", st.ID, st.Shard, m.ShardOf(st.ID))
		}
	}
	if len(m.Homes()) != len(ids) {
		t.Fatalf("Homes() lists %d homes, want %d", len(m.Homes()), len(ids))
	}
}

func TestConcurrentSubmitsToDistinctHomesDoNotInterleave(t *testing.T) {
	m := New(Config{Shards: 4, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()

	const homes = 16
	if _, err := m.AddHomes("home", homes, 4); err != nil {
		t.Fatal(err)
	}

	// Every home gets a distinct target state; if any cross-home state leaked,
	// a home would end up with a neighbour's state.
	var wg sync.WaitGroup
	for i := 0; i < homes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := HomeID(fmt.Sprintf("home-%d", i))
			target := device.State(fmt.Sprintf("MODE-%d", i))
			for rep := 0; rep < 5; rep++ {
				if _, err := m.Submit(id, plugRoutine("set", target, 0, 1, 2, 3)); err != nil {
					t.Errorf("submit to %q: %v", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := 0; i < homes; i++ {
		id := HomeID(fmt.Sprintf("home-%d", i))
		want := device.State(fmt.Sprintf("MODE-%d", i))
		states, err := m.DeviceStates(id)
		if err != nil {
			t.Fatal(err)
		}
		for dev, st := range states {
			if st != want {
				t.Errorf("home %q device %s = %s, want %s (cross-tenant interference)", id, dev, st, want)
			}
		}
		results, err := m.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 5 {
			t.Errorf("home %q has %d results, want exactly its own 5", id, len(results))
		}
		for _, res := range results {
			if res.Status != visibility.StatusCommitted {
				t.Errorf("home %q routine %d = %v, want committed", id, res.ID, res.Status)
			}
		}
	}

	st := m.Status()
	if st.Submitted != homes*5 || st.Committed != homes*5 {
		t.Errorf("Status totals = %d submitted / %d committed, want %d/%d",
			st.Submitted, st.Committed, homes*5, homes*5)
	}
}

func TestGracefulShutdownDrainsInFlightRoutines(t *testing.T) {
	// Live clock: submissions return before their routines finish, so Close
	// must drain them.
	m := New(Config{Shards: 4, Clock: ClockLive, pumpInterval: time.Millisecond, Home: HomeConfig{Model: visibility.EV}})
	if _, err := m.AddHomes("home", 8, 2); err != nil {
		t.Fatal(err)
	}

	const perHome = 3
	for i := 0; i < 8; i++ {
		id := HomeID(fmt.Sprintf("home-%d", i))
		for rep := 0; rep < perHome; rep++ {
			// A virtual-duration command scheduled slightly in the future so it
			// is genuinely in flight at Close time.
			if err := m.SubmitAfter(id, 5*time.Millisecond, plugRoutine("drain", device.On, 0, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	m.Close()

	for i := 0; i < 8; i++ {
		id := HomeID(fmt.Sprintf("home-%d", i))
		results, err := m.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != perHome {
			t.Fatalf("home %q: %d results after Close, want %d", id, len(results), perHome)
		}
		for _, res := range results {
			if !res.Status.Finished() {
				t.Errorf("home %q routine %d still %v after Close", id, res.ID, res.Status)
			}
		}
		st, err := m.HomeStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending != 0 {
			t.Errorf("home %q: %d pending after Close, want 0", id, st.Pending)
		}
	}

	// Mutations are rejected once closed; queries and Close stay usable.
	if _, err := m.Submit("home-0", plugRoutine("late", device.On, 0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := m.AddHome("new-home", device.Plugs(1).All()...); !errors.Is(err, ErrClosed) {
		t.Errorf("AddHome after Close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestUnknownAndDuplicateHomes(t *testing.T) {
	m := New(Config{Shards: 2, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()

	if _, err := m.Submit("ghost", plugRoutine("r", device.On, 0)); !errors.Is(err, ErrUnknownHome) {
		t.Errorf("Submit to missing home = %v, want ErrUnknownHome", err)
	}
	if _, err := m.Results("ghost"); !errors.Is(err, ErrUnknownHome) {
		t.Errorf("Results of missing home = %v, want ErrUnknownHome", err)
	}
	if err := m.AddHome("h1", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHome("h1", device.Plugs(2).All()...); !errors.Is(err, ErrDuplicateHome) {
		t.Errorf("duplicate AddHome = %v, want ErrDuplicateHome", err)
	}
	if err := m.AddHome("", device.Plugs(1).All()...); err == nil {
		t.Error("empty home ID accepted")
	}
	if err := m.AddHome("h2"); err == nil {
		t.Error("home with no devices accepted")
	}
}

func TestFailureInjectionPerHome(t *testing.T) {
	m := New(Config{Shards: 2, Home: HomeConfig{Model: visibility.SGSV}})
	defer m.Close()
	if err := m.AddHome("a", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHome("b", device.Plugs(2).All()...); err != nil {
		t.Fatal(err)
	}

	if err := m.FailDevice("a", "plug-0"); err != nil {
		t.Fatal(err)
	}
	// Home a's plug-0 is down: a routine against it aborts under S-GSV.
	rid, err := m.Submit("a", plugRoutine("hit-failed", device.On, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := m.Result("a", rid)
	if err != nil || !ok {
		t.Fatalf("Result(a, %d) = %v, %v", rid, ok, err)
	}
	if res.Status != visibility.StatusAborted {
		t.Errorf("routine on failed device = %v, want aborted", res.Status)
	}

	// Home b is unaffected by a's failure.
	rid, err = m.Submit("b", plugRoutine("independent", device.On, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = m.Result("b", rid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != visibility.StatusCommitted {
		t.Errorf("home b routine = %v, want committed (failure leaked across homes)", res.Status)
	}

	if err := m.RestoreDevice("a", "plug-0"); err != nil {
		t.Fatal(err)
	}
	rid, err = m.Submit("a", plugRoutine("after-restore", device.On, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ = m.Result("a", rid)
	if res.Status != visibility.StatusCommitted {
		t.Errorf("post-restore routine = %v, want committed", res.Status)
	}
}

func TestSubmitSpec(t *testing.T) {
	m := New(Config{Shards: 1, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if err := m.AddHome("h", device.Plugs(1).All()...); err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"routine_name":"from-spec","commands":[{"device":"plug-0","action":"ON"}]}`)
	rid, err := m.SubmitSpec("h", spec)
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := m.Result("h", rid)
	if err != nil || !ok || res.Status != visibility.StatusCommitted {
		t.Fatalf("spec routine: res=%+v ok=%v err=%v", res, ok, err)
	}
	if _, err := m.SubmitSpec("h", []byte(`{`)); err == nil {
		t.Error("malformed spec accepted")
	}
	// Submission validates against the home's own registry.
	if _, err := m.Submit("h", plugRoutine("out-of-range", device.On, 7)); err == nil {
		t.Error("routine naming a device the home lacks was accepted")
	}
	if err := m.SubmitAfter("h", time.Millisecond, plugRoutine("out-of-range", device.On, 7)); err == nil {
		t.Error("SubmitAfter with unknown device was accepted")
	}
}

func TestLiveClockPumperAdvancesOnlyBusyHomes(t *testing.T) {
	// Serving mode: the shard pumper must advance a home with due simulator
	// work in real time, while idle homes are skipped (no pump op is ever
	// queued for them — observable as an untouched simulator clock).
	m := New(Config{Shards: 2, Clock: ClockLive, pumpInterval: time.Millisecond, Home: HomeConfig{Model: visibility.EV}})
	defer m.Close()
	if _, err := m.AddHomes("home", 2, 2); err != nil {
		t.Fatal(err)
	}

	busyBefore, err := m.HomeStatus("home-0")
	if err != nil {
		t.Fatal(err)
	}
	wake := routine.New("wake", routine.Command{
		Device: "plug-0", Target: device.On, Duration: 5 * time.Millisecond,
	})
	if err := m.SubmitAfter("home-0", 5*time.Millisecond, wake); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		results, err := m.Results("home-0")
		if err != nil {
			t.Fatal(err)
		}
		if len(results) == 1 && results[0].Status == visibility.StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pumper never ran the due routine to completion: %+v", results)
		}
		time.Sleep(2 * time.Millisecond)
	}
	busyAfter, err := m.HomeStatus("home-0")
	if err != nil {
		t.Fatal(err)
	}
	if !busyAfter.Now.After(busyBefore.Now) {
		t.Errorf("busy home clock did not advance: %v -> %v", busyBefore.Now, busyAfter.Now)
	}

	// The idle home was never pumped: its simulator clock is still at its
	// creation instant (RunUntil only advances to executed events).
	idle, err := m.HomeStatus("home-1")
	if err != nil {
		t.Fatal(err)
	}
	idleRT, err := m.Runtime("home-1")
	if err != nil {
		t.Fatal(err)
	}
	if mb := idleRT.Mailbox(); mb.Accepted != 0 {
		t.Errorf("idle home accepted %d ops, want 0", mb.Accepted)
	}
	if idle.Pending != 0 || idle.Routines != 0 {
		t.Errorf("idle home status = %+v, want untouched", idle)
	}
}
