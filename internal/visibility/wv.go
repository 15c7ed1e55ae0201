package visibility

import (
	"fmt"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// wvController implements Weak Visibility — today's status quo (§2.1). Every
// routine starts immediately upon submission and executes its commands
// back-to-back with no locking, no isolation and no atomicity: commands to
// failed devices are silently skipped and the routine always "completes".
// Failure and restart events are observed (for the event log) but have no
// effect on execution.
type wvController struct {
	base
	runs map[routine.ID]*wvRun
}

type wvRun struct {
	res Result
	r   *routine.Routine
	idx int
}

func newWV(env Env, initial map[device.ID]device.State, opts Options) *wvController {
	return &wvController{
		base: newBase(env, initial, opts),
		runs: make(map[routine.ID]*wvRun),
	}
}

func (c *wvController) Model() Model { return WV }

func (c *wvController) Submit(r *routine.Routine) routine.ID { return c.submit(r, false) }

func (c *wvController) SubmitOwned(r *routine.Routine) routine.ID { return c.submit(r, true) }

func (c *wvController) submit(r *routine.Routine, owned bool) routine.ID {
	run := new(wvRun)
	run.r = c.assign(r, owned, &run.res)
	c.runs[run.res.ID] = run
	c.markStarted(&run.res)
	c.step(run)
	return run.res.ID
}

func (c *wvController) step(run *wvRun) {
	if run.idx >= len(run.r.Commands) {
		// WV always reports success, regardless of failed commands: there is
		// no atomicity to enforce.
		c.markCommitted(&run.res)
		c.applyCommit(run.r)
		c.serial = append(c.serial, order.RoutineNode(run.res.ID))
		return
	}
	cmd := run.r.Commands[run.idx]
	if !c.conditionMet(cmd) {
		run.res.Skipped++
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandSkipped, Routine: run.res.ID, Device: cmd.Device})
		run.idx++
		c.step(run)
		return
	}
	idx := run.idx
	c.env.Exec(run.res.ID, cmd, c.opts.hold(cmd), DoneFunc(func(err error) {
		c.commandDone(run, idx, err)
	}))
}

func (c *wvController) commandDone(run *wvRun, idx int, err error) {
	cmd := run.r.Commands[idx]
	if err != nil {
		run.res.BestEffortFailures++
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandFailed, Routine: run.res.ID,
			Device: cmd.Device, Detail: fmt.Sprintf("skipped: %v", err)})
	} else {
		run.res.Executed++
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandExecuted, Routine: run.res.ID,
			Device: cmd.Device, State: cmd.Target})
	}
	run.idx++
	c.step(run)
}

func (c *wvController) NotifyFailure(d device.ID) { c.failureDetected(d) }

func (c *wvController) NotifyRestart(d device.ID) { c.restartDetected(d) }
