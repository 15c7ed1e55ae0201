package runtime

import (
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// This file is the read path: once per batch drain (not per operation) the
// loop goroutine folds what changed into an immutable Snapshot and publishes
// it through an atomic pointer, and every query answers from the latest
// Snapshot without posting anything into the mailbox. A burst of status
// polls therefore costs the loop nothing — it cannot delay placement or shed
// mutating operations.
//
// Snapshot reads are linearizable with respect to acknowledged work. The
// loop publishes *before* it delivers any reply in the batch, so every
// operation acknowledged to anyone is already visible to every later reader
// — not just to the caller that issued it. Snapshots are published in order
// through one atomic pointer, so reads are monotonic, and each snapshot is
// internally consistent (counts, results and states were captured at the
// same loop instant). A reader that wanted to see more would have to see an
// operation no caller has been told about yet.

// Snapshot is one epoch's immutable view of a home: everything a query can
// ask for, captured at the same loop instant. Snapshots are cheap to hold
// and safe to read from any goroutine; a snapshot never changes after it is
// published.
type Snapshot struct {
	state  *visibility.StateExport
	events eventsView

	// devStates is the simulated fleet's ground truth at publish time (nil
	// for wall-clock runtimes, whose ground truth lives in the devices).
	devStates map[device.ID]device.State

	mailbox   MailboxStats
	model     string
	scheduler string
	wall      bool // substitute time.Now() for Counts.Now on the wall clock
}

// Results materializes per-routine outcomes in submission order.
func (s *Snapshot) Results() []visibility.Result {
	return s.state.Results.AppendTo(make([]visibility.Result, 0, s.state.Results.Len()))
}

// Result returns one routine's outcome. Routine IDs are dense, so the lookup
// is O(1).
func (s *Snapshot) Result(id routine.ID) (visibility.Result, bool) {
	res, ok := s.ResultRef(id)
	if !ok {
		return visibility.Result{}, false
	}
	return *res, true
}

// ResultRef is Result without the copy: a pointer to the record inside the
// snapshot, which is immutable — the caller must not write through it.
func (s *Snapshot) ResultRef(id routine.ID) (*visibility.Result, bool) {
	if id < 1 || int64(id) > int64(s.state.Results.Len()) {
		return nil, false
	}
	return s.state.Results.Ref(int(id - 1)), true
}

// Counts returns the snapshot's summary counters.
func (s *Snapshot) Counts() Counts {
	now := s.state.Now
	if s.wall {
		now = time.Now()
	}
	return Counts{
		Model:     s.model,
		Scheduler: s.scheduler,
		Routines:  s.state.Routines,
		Pending:   s.state.Pending,
		Active:    s.state.Active,
		Now:       now,
	}
}

// CommittedStates materializes the controller's committed-state view.
func (s *Snapshot) CommittedStates() map[device.ID]device.State {
	return s.state.Committed.AppendTo(nil)
}

// CommittedState returns one device's committed state without materializing
// the map.
func (s *Snapshot) CommittedState(d device.ID) (device.State, bool) {
	return s.state.Committed.Get(d)
}

// DeviceStates materializes the simulated fleet's ground truth (nil for
// wall-clock runtimes).
func (s *Snapshot) DeviceStates() map[device.ID]device.State {
	if s.devStates == nil {
		return nil
	}
	out := make(map[device.ID]device.State, len(s.devStates))
	for d, st := range s.devStates {
		out[d] = st
	}
	return out
}

// Events materializes the retained activity log.
func (s *Snapshot) Events() []visibility.Event {
	return s.events.since(make([]visibility.Event, 0, s.events.n), 0)
}

// EventsSince appends the events with sequence >= since and returns them
// together with the cursor to pass next time. FirstSeq of the retained
// window may have advanced past `since` if the poller fell behind the log's
// eviction; it then simply gets the oldest retained events.
func (s *Snapshot) EventsSince(since uint64) ([]visibility.Event, uint64) {
	return s.events.since(nil, since), s.events.nextSeq()
}

// RangeEventsSince calls fn, in sequence order, for every retained event with
// sequence >= since — handing it the event in place on the snapshot's
// immutable chunks, so fn must not write through the pointer or keep it past
// the snapshot — and returns the cursor to pass next time.
func (s *Snapshot) RangeEventsSince(since uint64, fn func(seq uint64, e *visibility.Event)) uint64 {
	s.events.rangeSince(since, fn)
	return s.events.nextSeq()
}

// EventSeqRange returns the sequence number of the first retained event and
// the cursor one past the last.
func (s *Snapshot) EventSeqRange() (first, next uint64) {
	return s.events.firstSeq, s.events.nextSeq()
}

// Mailbox returns the admission counters captured when the snapshot was
// published. HomeRuntime.Mailbox reads the live counters instead.
func (s *Snapshot) Mailbox() MailboxStats { return s.mailbox }

// Snapshot returns the latest published snapshot. It is never nil: the
// runtime publishes an initial snapshot before the loop starts, a new one
// after every batch that changed anything, and a final one at quiesce — so
// post-Close reads observe the drained state, and reads after a poison the
// last state published before the panic.
func (rt *HomeRuntime) Snapshot() *Snapshot { return rt.snap.Load() }

// publish cuts a new snapshot on the loop goroutine. Unless forced (initial
// and final snapshots), it is a no-op when no operation since the last
// publish could have changed observable state.
func (rt *HomeRuntime) publish(force bool) {
	if !force && !rt.snapDirty {
		return
	}
	s := &Snapshot{
		state:     rt.ctrl.Export(),
		events:    rt.elog.view(),
		mailbox:   rt.Mailbox(),
		model:     rt.cfg.Model.String(),
		scheduler: rt.cfg.Scheduler.String(),
		wall:      rt.cfg.Clock == ClockWall,
	}
	if rt.fleet != nil {
		if prev := rt.snap.Load(); prev != nil && rt.fleetVersion == rt.fleet.Version() {
			s.devStates = prev.devStates // fleet untouched: share the map
		} else {
			rt.fleetVersion = rt.fleet.Version()
			s.devStates = rt.fleet.Snapshot()
		}
	}
	rt.snap.Store(s)
	rt.snapDirty = false
	if m := rt.cfg.Metrics; m != nil {
		m.SnapshotPublishes.Inc()
	}
}
