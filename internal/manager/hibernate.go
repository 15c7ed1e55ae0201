package manager

import (
	"container/heap"
	"fmt"
	"time"

	"safehome/internal/journal"
	rt "safehome/internal/runtime"
)

// This file is the manager half of hibernation (see internal/runtime's
// freeze.go for the per-home half): the idle freezer that collapses quiet
// homes to FrozenHome records, the singleflight wake path behind every
// touch of a frozen home, and the manager-level deadline heap that fires
// scheduled triggers of frozen homes on time — the only resident cost a
// hibernated home with a pending alarm imposes is one 24-byte heap entry.

// wakeChurnGuard keeps the freezer from hibernating a home whose next
// simulator event is imminent — freezing it would just bounce it back
// through a checkpoint-load within a second.
const wakeChurnGuard = time.Second

// FreezeHome hibernates one home now, regardless of idleness: the graceful
// Close drains its mailbox and finishes in-flight work, the final
// checkpoint lands, and the slot collapses to a FrozenHome record. Returns
// an error if the home is unknown, unhealthy, bound to devices (its
// detector must keep watching them), or the manager is memory-only (nothing
// durable to wake from). Freezing an already frozen home is a no-op.
func (m *Manager) FreezeHome(id HomeID) error {
	if m.cfg.DataDir == "" {
		return fmt.Errorf("manager: cannot freeze home %q without a data directory", id)
	}
	if m.bound() {
		return fmt.Errorf("manager: home %q is bound to devices and never hibernates", id)
	}
	slot, err := m.slotOf(id)
	if err != nil {
		return err
	}
	return m.shards[m.ShardOf(id)].freeze(slot)
}

// FreezeIdle hibernates every healthy home that has been idle (no admitted
// mutating operation) at least olderThan and is quiescent: empty mailbox,
// no pending or active routines, and no simulator event due within the
// churn guard. It returns the number of homes frozen. The automatic
// freezer calls this with Config.HibernateAfter; tests and operators can
// call it directly with any threshold (olderThan 0 freezes everything
// quiescent).
func (m *Manager) FreezeIdle(olderThan time.Duration) int {
	if m.cfg.DataDir == "" || m.bound() {
		return 0
	}
	frozen := 0
	cutoff := time.Now().Add(-olderThan)
	for _, sh := range m.shards {
		for _, slot := range sh.liveSnapshot() {
			home := slot.rt.Load()
			if home == nil || slot.rt.Health() != rt.HealthOK {
				continue
			}
			if home.IdleSince().After(cutoff) {
				continue
			}
			if home.Mailbox().Depth != 0 {
				continue
			}
			c := home.Counts()
			if c.Pending != 0 || c.Active != 0 {
				continue
			}
			if due := home.NextDueAt(); !due.IsZero() && due.Before(c.Now.Add(wakeChurnGuard)) {
				continue // an event is about to fire; freezing now is churn
			}
			if sh.freeze(slot) == nil {
				frozen++
			}
		}
	}
	return frozen
}

// runFreezer is the manager's hibernation loop (started under ClockLive
// when Config.HibernateAfter is set): it periodically sweeps the live
// homes and freezes the ones idle past the threshold. The sweep walks only
// live slots, so a mostly frozen fleet costs almost nothing to scan.
func (m *Manager) runFreezer() {
	defer m.wg.Done()
	interval := m.cfg.HibernateAfter / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.FreezeIdle(m.cfg.HibernateAfter)
		}
	}
}

// reanimate is the retry half of the submit-racing-freeze contract (see
// mutate): a mutating method that loaded a runtime just as the freezer
// closed it gets ErrClosed back; a pass through the wake path (which
// serializes behind the in-flight freeze on the slot's wakeMu) yields the
// next generation. If the wake hands back the same runtime the operation
// already failed on, the home is genuinely closed — the error stands.
func (m *Manager) reanimate(id HomeID, stale *rt.HomeRuntime) (*rt.HomeRuntime, error) {
	if m.cfg.DataDir == "" {
		return nil, ErrClosed
	}
	slot, err := m.slotOf(id)
	if err != nil {
		return nil, err
	}
	home, err := m.shards[m.ShardOf(id)].wake(slot)
	if err != nil {
		return nil, err
	}
	if home == stale {
		return nil, ErrClosed
	}
	return home, nil
}

// wakeEntry is one frozen home's earliest scheduled-trigger deadline.
type wakeEntry struct {
	id HomeID
	at time.Time
}

// wakeHeap is a min-heap of wake deadlines (container/heap).
type wakeHeap []wakeEntry

func (h wakeHeap) Len() int            { return len(h) }
func (h wakeHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h wakeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *wakeHeap) Push(x interface{}) { *h = append(*h, x.(wakeEntry)) }
func (h *wakeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// scheduleWake records that the home must be awake by the given time (its
// earliest retired trigger deadline) and kicks the waker if this deadline
// is now the soonest. Stale entries — the home woke for other reasons, or
// froze again with a new deadline — are skipped lazily by the waker: waking
// an already live home is a single atomic load.
func (m *Manager) scheduleWake(id HomeID, at time.Time) {
	if at.IsZero() {
		return
	}
	m.wakeQMu.Lock()
	heap.Push(&m.wakeQ, wakeEntry{id: id, at: at})
	m.wakeQMu.Unlock()
	select {
	case m.wakeKick <- struct{}{}:
	default:
	}
}

// runWaker sleeps until the earliest wake deadline and reanimates the due
// homes, so a frozen home's scheduled trigger fires on time: the wake is
// ordinary journal recovery, which re-arms a due trigger with zero delay,
// and the freshly published deadline makes the shard pumper fire it on its
// next tick.
func (m *Manager) runWaker() {
	defer m.wg.Done()
	const parked = time.Hour // re-check at least hourly even with no kick
	timer := time.NewTimer(parked)
	defer timer.Stop()
	for {
		m.wakeQMu.Lock()
		now := time.Now()
		wait := parked
		var due []HomeID
		for len(m.wakeQ) > 0 {
			next := m.wakeQ[0]
			if next.at.After(now) {
				wait = next.at.Sub(now)
				break
			}
			heap.Pop(&m.wakeQ)
			due = append(due, next.id)
		}
		m.wakeQMu.Unlock()
		for _, id := range due {
			// Runtime wakes a frozen home and is a no-op on a live one;
			// errors (home removed, manager closing) are not the waker's to
			// handle — the deadline is consumed either way.
			_, _ = m.Runtime(id)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-m.stop:
			return
		case <-m.wakeKick:
		case <-timer.C:
		}
	}
}

// coldRecord decides whether a home can be registered frozen and returns
// the record to register it with: the durable frozen marker if one exists
// (a cleanly hibernated home — stay cold, wake on demand), or a synthetic
// record for a home that never ran. A home with journal state (in its
// directory or in the shard's log) but no marker crashed live and must
// recover live — returns nil.
func (m *Manager) coldRecord(id HomeID, devices int) (*rt.FrozenHome, error) {
	dir := m.homeDir(id)
	fr, err := rt.ReadFrozenRecord(dir)
	if err != nil {
		return nil, err
	}
	if fr != nil {
		return fr, nil
	}
	if journal.HasState(dir, string(id), m.shardWriter(m.ShardOf(id))) {
		return nil, nil
	}
	now := time.Now()
	return &rt.FrozenHome{
		ID:       string(id),
		DataDir:  dir,
		Model:    m.cfg.Home.Model.String(),
		Devices:  devices,
		Created:  now,
		FrozenAt: now,
		NextSeq:  1, // no event yet: the first will be sequence 1
	}, nil
}
