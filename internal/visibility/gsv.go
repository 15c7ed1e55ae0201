package visibility

import (
	"fmt"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// gsvController implements Global Strict Visibility and its strong variant
// (§2.1, §3). At most one routine executes at any time; the rest queue in
// arrival order. While a routine is executing:
//
//   - GSV (loose): a detected failure or restart of a device the routine
//     touches aborts it;
//   - S-GSV (strong): any detected failure or restart aborts it.
//
// Aborts roll back every executed command to the pre-routine committed state.
type gsvController struct {
	base
	strong bool

	queue []*gsvRun
	cur   *gsvRun
	runs  map[routine.ID]*gsvRun
}

type gsvRun struct {
	res Result
	r   *routine.Routine
	idx int

	executed    []cmdRecord
	inflight    *cmdRecord
	rollbacks   int // outstanding rollback commands
	rollingBack bool
}

func newGSV(env Env, initial map[device.ID]device.State, opts Options, strong bool) *gsvController {
	return &gsvController{
		base:   newBase(env, initial, opts),
		strong: strong,
		runs:   make(map[routine.ID]*gsvRun),
	}
}

func (c *gsvController) Model() Model {
	if c.strong {
		return SGSV
	}
	return GSV
}

func (c *gsvController) Submit(r *routine.Routine) routine.ID { return c.submit(r, false) }

func (c *gsvController) SubmitOwned(r *routine.Routine) routine.ID { return c.submit(r, true) }

func (c *gsvController) submit(r *routine.Routine, owned bool) routine.ID {
	run := new(gsvRun)
	run.r = c.assign(r, owned, &run.res)
	c.runs[run.res.ID] = run
	c.queue = append(c.queue, run)
	c.startNext()
	return run.res.ID
}

// startNext begins the next waiting routine if the home is idle.
func (c *gsvController) startNext() {
	if c.cur != nil || len(c.queue) == 0 {
		return
	}
	run := c.queue[0]
	c.queue = c.queue[1:]
	c.cur = run
	c.markStarted(&run.res)
	c.step(run)
}

func (c *gsvController) step(run *gsvRun) {
	if run != c.cur || run.res.Status.Finished() {
		return
	}
	if run.idx >= len(run.r.Commands) {
		c.commit(run)
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
	run.inflight = &cmdRecord{idx: idx, dev: cmd.Device, target: cmd.Target, prior: c.committed[cmd.Device]}
	c.env.Exec(run.res.ID, cmd, c.opts.hold(cmd), DoneFunc(func(err error) {
		c.commandDone(run, idx, err)
	}))
}

func (c *gsvController) commandDone(run *gsvRun, idx int, err error) {
	if run.res.Status.Finished() {
		return // aborted while the command was in flight
	}
	cmd := run.r.Commands[idx]
	rec := run.inflight
	run.inflight = nil
	if err != nil {
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandFailed, Routine: run.res.ID,
			Device: cmd.Device, Detail: err.Error()})
		if cmd.Must() {
			c.abort(run, fmt.Sprintf("must command on %s failed: %v", cmd.Device, err))
			return
		}
		run.res.BestEffortFailures++
	} else {
		run.res.Executed++
		if rec != nil {
			run.executed = append(run.executed, *rec)
		}
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandExecuted, Routine: run.res.ID,
			Device: cmd.Device, State: cmd.Target})
	}
	run.idx++
	c.step(run)
}

func (c *gsvController) commit(run *gsvRun) {
	c.markCommitted(&run.res)
	c.applyCommit(run.r)
	c.serial = append(c.serial, order.RoutineNode(run.res.ID))
	c.cur = nil
	c.startNext()
}

// abort rolls back every executed (and in-flight) command of the current
// routine to the pre-routine committed state, then starts the next routine.
func (c *gsvController) abort(run *gsvRun, reason string) {
	if run.res.Status.Finished() {
		return
	}
	c.markAborted(&run.res, reason)

	records := append([]cmdRecord(nil), run.executed...)
	if run.inflight != nil {
		// The in-flight command may already have actuated the device; include
		// it conservatively in the rollback.
		records = append(records, *run.inflight)
		run.inflight = nil
	}
	// Restore each touched device once, to its pre-routine state; count every
	// executed command on a restored device as rolled back.
	restored := make(map[device.ID]bool)
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		run.res.RolledBack++
		if restored[rec.dev] {
			continue
		}
		restored[rec.dev] = true
		target := rec.prior
		if target == device.StateUnknown {
			continue
		}
		c.emit(Event{Time: c.env.Now(), Kind: EvRolledBack, Routine: run.res.ID, Device: rec.dev, State: target})
		restore := routine.Command{Device: rec.dev, Target: target}
		c.env.Exec(run.res.ID, restore, c.opts.DefaultShort, ignoreDone)
	}

	c.cur = nil
	c.startNext()
}

func (c *gsvController) NotifyFailure(d device.ID) {
	c.failureDetected(d)
	if c.cur == nil {
		return
	}
	if c.strong || c.cur.r.Touches(d) {
		c.abort(c.cur, fmt.Sprintf("device %s failed during execution (%s)", d, c.Model()))
	}
}

func (c *gsvController) NotifyRestart(d device.ID) {
	c.restartDetected(d)
	if c.cur == nil {
		return
	}
	// Restart events are also visible to users; strict visibility treats them
	// like failures (§3: "if any device failure event or restart event were to
	// occur while a routine is executing ... the routine must be aborted").
	if c.strong || c.cur.r.Touches(d) {
		c.abort(c.cur, fmt.Sprintf("device %s restarted during execution (%s)", d, c.Model()))
	}
}
