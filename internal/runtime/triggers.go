package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"safehome/internal/visibility"
)

// Triggers are the automation half of the routine dispatcher (Fig 11): a
// stored routine can be dispatched once after a delay ("run the trash
// routine at 11 pm") or repeatedly at a fixed interval ("every Monday
// night"), without a user in the loop. Triggers reference routines by name,
// so editing the stored definition affects future firings.
//
// Trigger state is owned by the loop goroutine — scheduling, firing and
// cancellation are all mailbox operations, so the single-writer invariant
// has no exceptions. Timing rides the runtime's environment: on the wall
// clock the live env's timers post the firing back into the mailbox, and on
// a simulated clock the firing runs inline during a pump. Recurring
// triggers are rejected on ClockVirtual, where a self-re-arming event would
// make the pump's run-to-quiescence non-terminating.

// TriggerHandle identifies a scheduled trigger.
type TriggerHandle int64

// ScheduledTrigger describes one active trigger.
type ScheduledTrigger struct {
	Handle    TriggerHandle `json:"handle"`
	Routine   string        `json:"routine"`
	Interval  time.Duration `json:"interval,omitempty"` // zero for one-shot triggers
	NextFire  time.Time     `json:"next_fire"`
	Fired     int           `json:"fired"`
	LastError string        `json:"last_error,omitempty"`
}

type trigger struct {
	spec  ScheduledTrigger
	timer visibility.TimerHandle
}

// ScheduleAfter dispatches the named stored routine once, after the delay.
func (rt *HomeRuntime) ScheduleAfter(name string, delay time.Duration) (TriggerHandle, error) {
	return rt.schedule(name, delay, 0)
}

// ScheduleEvery dispatches the named stored routine repeatedly at the given
// interval, starting one interval from now.
func (rt *HomeRuntime) ScheduleEvery(name string, interval time.Duration) (TriggerHandle, error) {
	if interval <= 0 {
		return 0, fmt.Errorf("runtime: trigger interval must be positive")
	}
	return rt.schedule(name, interval, interval)
}

func (rt *HomeRuntime) schedule(name string, delay, interval time.Duration) (TriggerHandle, error) {
	if delay < 0 {
		delay = 0
	}
	rp := newReply()
	if err := rt.tryPost(op{kind: opScheduleTrig, name: name, delay: delay, every: interval, reply: rp}); err != nil {
		rp.discard()
		return 0, err
	}
	res := rp.await()
	return res.handle, res.err
}

// CancelTrigger stops a scheduled trigger; it is not an error if the handle
// is unknown or already fired. Returns ErrOverloaded/ErrClosed if the
// cancellation could not be enqueued.
func (rt *HomeRuntime) CancelTrigger(handle TriggerHandle) error {
	rp := newReply()
	if err := rt.tryPost(op{kind: opCancelTrig, handle: handle, reply: rp}); err != nil {
		rp.discard()
		return err
	}
	rp.await()
	return nil
}

// Triggers lists active scheduled triggers. The trigger table is loop-owned,
// so this is the one read that posts through the mailbox. Once the loop has
// exited it answers inline: the quiesced table after Close or Crash, none
// after a poison (a loop that died mid-mutation is never touched again).
func (rt *HomeRuntime) Triggers() []ScheduledTrigger {
	rp := newReply()
	if err := rt.post(op{kind: opTriggers, reply: rp}); err != nil {
		rp.discard()
	} else if res := rp.await(); res.err == nil {
		return res.trigs
	}
	<-rt.done
	if rt.poisoned.Load() {
		return nil
	}
	return rt.listTriggers()
}

// listTriggers runs on the loop goroutine, or inline once the loop has exited.
// The table is a map; the listing is sorted by handle, so it reads the same
// every time.
func (rt *HomeRuntime) listTriggers() []ScheduledTrigger {
	out := make([]ScheduledTrigger, 0, len(rt.triggers))
	for _, tr := range rt.triggers {
		out = append(out, tr.spec)
	}
	slices.SortFunc(out, func(a, b ScheduledTrigger) int { return cmp.Compare(a.Handle, b.Handle) })
	return out
}

// scheduleTrigger runs on the loop goroutine.
func (rt *HomeRuntime) scheduleTrigger(name string, delay, interval time.Duration) (TriggerHandle, error) {
	if rt.triggersStopped {
		return 0, fmt.Errorf("runtime: trigger scheduler is stopped")
	}
	if interval > 0 && rt.cfg.Clock == ClockVirtual {
		// A virtual clock drains its event queue to empty on every pump; a
		// self-re-arming trigger would make that drain non-terminating
		// ("every d" has no meaning when time is infinitely fast).
		return 0, fmt.Errorf("runtime: recurring triggers require a live or paced clock")
	}
	if _, ok := rt.bank.Get(name); !ok {
		return 0, fmt.Errorf("runtime: no stored routine named %q", name)
	}
	rt.nextTrigger++
	handle := rt.nextTrigger
	tr := &trigger{spec: ScheduledTrigger{
		Handle:   handle,
		Routine:  name,
		Interval: interval,
		NextFire: rt.env.Now().Add(delay),
	}}
	tr.timer = rt.armTrigger(handle, delay)
	rt.triggers[handle] = tr
	if rt.j != nil {
		rt.noteTriggerArm(tr.spec)
	}
	return handle, nil
}

// armTrigger schedules the next firing on the home's clock. On the wall
// clock the live env's timer posts the callback into the mailbox; on a
// simulated clock it fires inline during a pump — either way fireTrigger
// runs in the loop's serialized context.
func (rt *HomeRuntime) armTrigger(handle TriggerHandle, delay time.Duration) visibility.TimerHandle {
	return rt.env.After(delay, visibility.TimerFunc(func() { rt.fireTrigger(handle) }))
}

// fireTrigger runs on the loop goroutine: dispatch the stored routine,
// record the outcome, and re-arm recurring triggers.
func (rt *HomeRuntime) fireTrigger(handle TriggerHandle) {
	tr, ok := rt.triggers[handle]
	if !ok {
		return
	}
	var err error
	r, ok := rt.bank.Get(tr.spec.Routine)
	if !ok {
		err = fmt.Errorf("runtime: no stored routine named %q", tr.spec.Routine)
	} else if err = r.Validate(rt.reg); err == nil {
		rt.ctrl.SubmitOwned(r) // Get returned a copy nobody else holds
	}
	tr.spec.Fired++
	if err != nil {
		tr.spec.LastError = err.Error()
	} else {
		tr.spec.LastError = ""
	}
	if tr.spec.Interval > 0 {
		tr.spec.NextFire = rt.env.Now().Add(tr.spec.Interval)
		tr.timer = rt.armTrigger(handle, tr.spec.Interval)
		if rt.j != nil {
			rt.noteTriggerArm(tr.spec)
		}
	} else {
		delete(rt.triggers, handle)
		if rt.j != nil {
			rt.noteTriggerCancel(handle)
		}
	}
}

// cancelTrigger runs on the loop goroutine.
func (rt *HomeRuntime) cancelTrigger(handle TriggerHandle) {
	if tr, ok := rt.triggers[handle]; ok {
		tr.timer.Cancel()
		delete(rt.triggers, handle)
		if rt.j != nil {
			rt.noteTriggerCancel(handle)
		}
	}
}

// stopAllTriggers runs on the loop goroutine (from Close's opStopTriggers,
// and again — idempotently — at loop exit): cancel every armed trigger and
// refuse new schedules. A timer firing already queued behind this op finds
// its handle gone and is a no-op.
func (rt *HomeRuntime) stopAllTriggers() {
	rt.triggersStopped = true
	for handle, tr := range rt.triggers {
		tr.timer.Cancel()
		delete(rt.triggers, handle)
		// Retirement is not a cancellation: a journaled home keeps the spec
		// so the final checkpoint re-arms it on the next start.
		if rt.j != nil {
			rt.retiredTriggers = append(rt.retiredTriggers, tr.spec)
		}
	}
}
