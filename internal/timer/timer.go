// Package timer is the typed timer both home clocks queue: the simulator's
// event slab (internal/sim) and the live env's runtime timers
// (internal/live). A controller arms a Timer — a long-lived record that
// implements Fire — and gets back a Handle, so arming builds no closure and
// cancelling needs no cancel func.
package timer

import "time"

// Timer is a callback armed for a deadline. It is an interface rather than
// a func so that a long-lived record can be its own timer: EV's per-device
// run slot is its pre-lease revocation timer and the run its JiT TTL.
type Timer interface{ Fire() }

// Func adapts a func to Timer. A func is pointer-shaped, so storing one in
// the interface allocates nothing beyond the func itself.
type Func func()

// Fire implements Timer.
func (f Func) Fire() { f() }

// Slot is the part of a queued timer that a Handle reaches: the sequence
// number its queue gave it (unique per queue; the tie-break among equal
// deadlines), its cancel mark and, on the wall clock, the runtime timer
// behind it. The simulator's events embed one and recycle it once it has
// fired; the live env's timers embed one and are never reused.
type Slot struct {
	Seq      uint64
	Canceled bool
	// Runtime, when set, is stopped on cancel, so a cancelled wall-clock
	// timer is released at once rather than at its deadline. The simulator
	// leaves it nil.
	Runtime *time.Timer
}

// Handle names one armed timer. It is bound to the slot's sequence number,
// which changes when a fired slot is reused, so a stale handle — its timer
// fired, or was cancelled and recycled — cancels nothing. The zero Handle
// names no timer.
type Handle struct {
	slot *Slot
	seq  uint64
}

// Handle returns the handle of the timer now queued in s.
func (s *Slot) Handle() Handle { return Handle{slot: s, seq: s.Seq} }

// Cancel marks the timer canceled if it has not fired yet and stops its
// runtime timer; the simulator drops a marked event when it reaches the
// head. Call it from the context that fires the timer. Cancelling twice, or
// through a stale or zero handle, does nothing.
func (h Handle) Cancel() {
	if h.slot == nil || h.slot.Seq != h.seq {
		return
	}
	h.slot.Canceled = true
	if h.slot.Runtime != nil {
		h.slot.Runtime.Stop()
	}
}
