package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	rt "safehome/internal/runtime"
	"safehome/internal/stats"
)

// homeSlot is one home's stable identity on a shard: the routing map points
// at slots, and the slot holds the home's current runtime generation through
// its supervised rt.Slot. When a panic poisons a runtime, the shard's
// supervision swaps a freshly recovered runtime in — callers holding the
// slot never see a dangling home, only ErrRestarting/ErrQuarantined while it
// is down.
type homeSlot struct {
	id      HomeID
	devices []device.Info
	rt      *rt.Slot

	// frozen holds the hibernation record while the home has no runtime
	// (rt.Load() == nil): the few hundred bytes the manager keeps resident
	// per hibernated home. Transition ordering keeps readers consistent —
	// freeze stores frozen before clearing the runtime; wake stores the
	// runtime before clearing frozen — so "runtime first, frozen as
	// fallback" always finds one.
	frozen atomic.Pointer[rt.FrozenHome]
	// wakeMu is the singleflight guard for freeze/wake transitions: exactly
	// one goroutine reanimates a frozen home; concurrent wakers (a submit, a
	// query, the trigger-deadline waker) block and share the result.
	wakeMu sync.Mutex
}

// shard is a thin owner of a disjoint subset of the manager's homes: it
// holds the routing map from home ID to home slot, mirrors the home count
// for lock-free Status reads, and runs up to two goroutines — under
// ClockLive the pumper that advances its homes' simulators to the wall
// clock, and its supervision's restart loop. All per-home state lives
// inside the runtimes; the shard's lock only guards the maps themselves and
// is never held across disk I/O.
type shard struct {
	m     *Manager
	index int
	sv    *rt.Supervision

	mu     sync.RWMutex
	homes  map[HomeID]*homeSlot
	closed bool

	// adding reserves the IDs whose first generation add is building with
	// mu released: a concurrent add of the same ID fails fast with
	// ErrDuplicateHome, so two journals never recover one home (the loser's
	// close could otherwise publish an older checkpoint over the winner's
	// after the log was pruned past it). building counts those adds, so
	// closeAll can wait for them.
	adding   map[HomeID]struct{}
	building sync.WaitGroup

	// live is the subset of homes with a runtime resident. The pumper and
	// the idle freezer scan only this map, so a frozen home costs zero
	// per-tick work — the whole point of hibernation at a million homes.
	live map[HomeID]*homeSlot

	// homeCount mirrors len(homes) for lock-free Status reads.
	homeCount stats.Counter
}

func newShard(m *Manager, index int) *shard {
	return &shard{
		m:      m,
		index:  index,
		sv:     rt.NewSupervision(m.cfg.Supervisor, m.tel.sup, m.stop),
		homes:  make(map[HomeID]*homeSlot),
		adding: make(map[HomeID]struct{}),
		live:   make(map[HomeID]*homeSlot),
	}
}

// add registers a home on this shard. Without a frozen record it builds the
// home's first runtime generation now. With one it registers the home cold:
// just the slot and the record, no runtime — first touch (or a due trigger
// deadline) wakes it. Cold registration is how a manager holds a million
// homes without holding a million loops.
//
// The build (journal recovery: disk reads, a checkpoint) runs with the
// shard unlocked under a reservation of the ID, and the slot is published
// only once it is built, so lookups on the shard neither wait for it nor
// see a half-built slot.
func (s *shard) add(id HomeID, devices []device.Info, fr *rt.FrozenHome) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.reservedLocked(id) {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateHome, id)
	}
	s.adding[id] = struct{}{}
	s.building.Add(1)
	s.mu.Unlock()
	defer s.building.Done()

	slot, home, err := s.build(id, devices, fr)
	s.mu.Lock()
	delete(s.adding, id)
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err != nil {
		s.mu.Unlock()
		if home != nil {
			home.Close()
		}
		return err
	}
	s.homes[id] = slot
	if home != nil {
		s.live[id] = slot
	}
	s.homeCount.Inc()
	s.mu.Unlock()
	return nil
}

// build makes the slot add publishes: cold with the frozen record, or with
// its first runtime generation built and stored.
func (s *shard) build(id HomeID, devices []device.Info, fr *rt.FrozenHome) (*homeSlot, *rt.HomeRuntime, error) {
	slot := &homeSlot{id: id, devices: append([]device.Info(nil), devices...)}
	// Each generation the slot builds recovers from the home's journal when
	// the manager is durable; memory-only homes restart empty but alive. A
	// device-bound home's generations share its registry and actuator, and
	// each arms its failure detector once the manager has started.
	build := func(onPoison func(error)) (*rt.HomeRuntime, error) {
		return rt.NewSim(s.m.runtimeConfig(slot.id, s.index, onPoison), device.NewRegistry(slot.devices...))
	}
	if bind := s.m.cfg.Home.Actuator; bind != nil {
		reg := device.NewRegistry(devices...)
		actuator := bind(id, reg)
		build = func(onPoison func(error)) (*rt.HomeRuntime, error) {
			home, err := rt.NewLive(s.m.runtimeConfig(slot.id, s.index, onPoison), reg, actuator)
			if err == nil && s.m.detecting.Load() {
				home.Start()
			}
			return home, err
		}
	}
	slot.rt = s.sv.NewSlot(s.m.homeDir(id), build)
	if fr != nil {
		slot.frozen.Store(fr)
		return slot, nil, nil
	}
	home, err := slot.rt.Build()
	if err != nil {
		return nil, nil, err
	}
	slot.rt.Store(home)
	return slot, home, nil
}

// setLive moves the slot in or out of the pumper/freezer scan set. It
// refuses (returning false) once the shard is closed, so a wake racing
// shutdown cannot resurrect a runtime closeAll will never see.
func (s *shard) setLive(slot *homeSlot, live bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if live {
		s.live[slot.id] = slot
	} else {
		delete(s.live, slot.id)
	}
	return true
}

// wake reanimates a hibernated home: remove the frozen marker, rebuild the
// runtime from checkpoint + journal tail, publish it. wakeMu singleflights
// concurrent wakers and serializes against an in-flight freeze — a waker
// arriving mid-freeze blocks, then finds rt nil and reanimates. The marker
// is removed BEFORE the build so a crash mid-wake leaves journal state with
// no marker: an ordinary live recovery next boot, never a stale frozen
// claim over a home that already reanimated.
func (s *shard) wake(slot *homeSlot) (*rt.HomeRuntime, error) {
	wakeStart := time.Now()
	slot.wakeMu.Lock()
	defer slot.wakeMu.Unlock()
	if home := slot.rt.Load(); home != nil {
		return home, nil // another waker (or a failed freeze) got here first
	}
	if dir := s.m.homeDir(slot.id); dir != "" {
		if err := rt.RemoveFrozenRecord(dir); err != nil {
			return nil, err
		}
	}
	home, err := slot.rt.Build()
	if err != nil {
		return nil, err
	}
	if !s.setLive(slot, true) {
		home.Close()
		return nil, ErrClosed
	}
	slot.rt.Store(home)
	slot.frozen.Store(nil)
	s.m.tel.wakes.Inc()
	s.m.tel.wakeSeconds.Observe(time.Since(wakeStart).Seconds())
	return home, nil
}

// freeze hibernates one home: final checkpoint via the graceful Close,
// durable frozen marker, then collapse the slot to the FrozenHome record.
// Only a healthy home freezes — a degraded journal cannot take the final
// checkpoint, and a poisoned home belongs to the supervisor. On a freeze
// error after the Close (which is irrevocable) the slot is rebuilt from
// disk so the home keeps serving.
func (s *shard) freeze(slot *homeSlot) error {
	slot.wakeMu.Lock()
	defer slot.wakeMu.Unlock()
	home := slot.rt.Load()
	if home == nil {
		return nil // already frozen
	}
	if h := slot.rt.Health(); h != rt.HealthOK {
		return fmt.Errorf("manager: home %q is %s, not freezing", slot.id, h)
	}
	fr, err := home.Freeze()
	if err == nil {
		err = rt.WriteFrozenRecord(fr)
	}
	if err != nil {
		if !slot.rt.Serving() {
			// Poisoned mid-freeze: the dying loop already queued the slot for
			// restart; the shard's supervision owns the rebuild.
			return err
		}
		rebuilt, rerr := slot.rt.Build()
		if rerr != nil {
			return fmt.Errorf("manager: home %q failed to freeze (%v) and to rebuild: %w", slot.id, err, rerr)
		}
		slot.rt.Store(rebuilt)
		return err
	}
	slot.frozen.Store(fr)
	s.setLive(slot, false)
	slot.rt.Store(nil)
	s.m.tel.freezes.Inc()
	if !fr.NextFire.IsZero() {
		s.m.scheduleWake(slot.id, fr.NextFire)
	}
	return nil
}

// slot returns the home's slot, if the shard owns it.
func (s *shard) slot(id HomeID) (*homeSlot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot, ok := s.homes[id]
	return slot, ok
}

// has reports whether the shard owns the home or is adding it.
func (s *shard) has(id HomeID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reservedLocked(id)
}

// reservedLocked reports whether id is registered or being added.
func (s *shard) reservedLocked(id HomeID) bool {
	_, ok := s.homes[id]
	_, adding := s.adding[id]
	return ok || adding
}

// snapshot returns a point-in-time copy of the routing map.
func (s *shard) snapshot() map[HomeID]*homeSlot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[HomeID]*homeSlot, len(s.homes))
	for id, slot := range s.homes {
		out[id] = slot
	}
	return out
}

// runPump is the shard's live-clock loop: on every tick it advances the
// simulators of exactly the live homes with an event due at or before now —
// idle homes are skipped entirely (each runtime publishes its next deadline,
// and PumpIfDue also bounds in-flight pumps to one per home), and frozen
// homes are not even visited: the scan walks the live map, not the fleet.
func (s *shard) runPump() {
	defer s.m.wg.Done()
	ticker := time.NewTicker(s.m.cfg.PumpInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.m.stop:
			return
		case <-ticker.C:
			now := time.Now()
			s.mu.RLock()
			for _, slot := range s.live {
				if home := slot.rt.Load(); home != nil {
					home.PumpIfDue(now)
				}
			}
			s.mu.RUnlock()
		}
	}
}

// liveSnapshot returns a point-in-time copy of the live (non-frozen) slots,
// for the idle freezer's scan.
func (s *shard) liveSnapshot() []*homeSlot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*homeSlot, 0, len(s.live))
	for _, slot := range s.live {
		out = append(out, slot)
	}
	return out
}

// closeAll stops every home runtime on this shard with stopHome (Close for a
// graceful drain, Crash for a kill) and stops accepting new homes. An add
// still building closes what it built itself; closeAll waits for it, so
// nothing outlives the shard.
func (s *shard) closeAll(stopHome func(*rt.HomeRuntime)) {
	s.mu.Lock()
	s.closed = true
	slots := make([]*homeSlot, 0, len(s.homes))
	for _, slot := range s.homes {
		slots = append(slots, slot)
	}
	s.mu.Unlock()
	s.building.Wait()
	for _, slot := range slots {
		// Frozen homes have no runtime — their final checkpoint already
		// landed; closing the manager costs them nothing.
		if home := slot.rt.Load(); home != nil {
			stopHome(home)
		}
	}
}
