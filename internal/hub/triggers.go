package hub

import (
	"time"

	rt "safehome/internal/runtime"
)

// Triggers are the automation half of the routine dispatcher (Fig 11). The
// implementation lives in internal/runtime: trigger state is owned by the
// runtime's loop goroutine and every scheduling, firing and cancellation is
// a typed mailbox operation, so the single-writer invariant has no
// exceptions (the old hub kept trigger state behind a private mutex). The
// hub re-exports the types and delegates.

// TriggerHandle identifies a scheduled trigger.
type TriggerHandle = rt.TriggerHandle

// ScheduledTrigger describes one active trigger.
type ScheduledTrigger = rt.ScheduledTrigger

// ScheduleAfter dispatches the named stored routine once, after the delay.
// On a durable hub the trigger is journaled and survives a restart: a
// pending trigger re-arms with its remaining delay.
func (h *Hub) ScheduleAfter(name string, delay time.Duration) (TriggerHandle, error) {
	return h.slot.Load().ScheduleAfter(name, delay)
}

// ScheduleEvery dispatches the named stored routine repeatedly at the given
// interval, starting one interval from now.
func (h *Hub) ScheduleEvery(name string, interval time.Duration) (TriggerHandle, error) {
	return h.slot.Load().ScheduleEvery(name, interval)
}

// CancelTrigger stops a scheduled trigger; it is not an error if the handle
// is unknown or already fired. It returns ErrOverloaded/ErrClosed when the
// cancellation could not be enqueued.
func (h *Hub) CancelTrigger(handle TriggerHandle) error {
	return h.slot.Load().CancelTrigger(handle)
}

// Triggers lists active scheduled triggers.
func (h *Hub) Triggers() []ScheduledTrigger { return h.slot.Load().Triggers() }
