package visibility

import (
	"fmt"
	"sort"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// psvController implements Partitioned Strict Visibility (§2.1, §3).
// Non-conflicting routines run concurrently; conflicting routines serialize.
// A routine acquires the (virtual) locks of all its devices before starting
// and holds them until it finishes — there is no leasing.
//
// Failure serialization follows the EV rules with case 3 replaced by 3*: a
// failure of a touched device can only be serialized after the routine if the
// device has recovered by the routine's finish point. Consequently PSV
// evaluates failures at the finish point, which is why its rollback overhead
// is higher than EV's (§7.4).
type psvController struct {
	base
	locks map[device.ID]routine.ID
	waitQ []*psvRun
	runs  map[routine.ID]*psvRun
}

type psvRun struct {
	res Result
	r   *routine.Routine
	idx int

	executed []cmdRecord
	inflight *cmdRecord

	firstTouched  map[device.ID]bool
	lastTouchDone map[device.ID]bool
	// suspect marks touched devices whose failure was detected at a point
	// that cannot be serialized before the routine; doomedEarly marks devices
	// whose failure hit strictly between (or during) this routine's commands.
	suspect     map[device.ID]bool
	doomedEarly map[device.ID]bool
}

func newPSV(env Env, initial map[device.ID]device.State, opts Options) *psvController {
	return &psvController{
		base:  newBase(env, initial, opts),
		locks: make(map[device.ID]routine.ID),
		runs:  make(map[routine.ID]*psvRun),
	}
}

func (c *psvController) Model() Model { return PSV }

func (c *psvController) Submit(r *routine.Routine) routine.ID { return c.submit(r, false) }

func (c *psvController) SubmitOwned(r *routine.Routine) routine.ID { return c.submit(r, true) }

func (c *psvController) submit(r *routine.Routine, owned bool) routine.ID {
	run := &psvRun{
		firstTouched:  make(map[device.ID]bool),
		lastTouchDone: make(map[device.ID]bool),
		suspect:       make(map[device.ID]bool),
		doomedEarly:   make(map[device.ID]bool),
	}
	run.r = c.assign(r, owned, &run.res)
	c.runs[run.res.ID] = run
	c.waitQ = append(c.waitQ, run)
	c.tryStart()
	return run.res.ID
}

// tryStart begins every waiting routine whose devices are all unlocked,
// scanning in arrival order.
func (c *psvController) tryStart() {
	for {
		started := false
		for i, run := range c.waitQ {
			if !c.allFree(run.r) {
				continue
			}
			for _, d := range run.r.Devices() {
				c.locks[d] = run.res.ID
			}
			c.waitQ = append(c.waitQ[:i], c.waitQ[i+1:]...)
			c.markStarted(&run.res)
			c.step(run)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

func (c *psvController) allFree(r *routine.Routine) bool {
	for _, d := range r.Devices() {
		if holder, locked := c.locks[d]; locked && holder != routine.None {
			return false
		}
	}
	return true
}

func (c *psvController) unlock(run *psvRun) {
	for _, d := range run.r.Devices() {
		if c.locks[d] == run.res.ID {
			delete(c.locks, d)
		}
	}
}

func (c *psvController) step(run *psvRun) {
	if run.res.Status.Finished() {
		return
	}
	if run.idx >= len(run.r.Commands) {
		c.finish(run)
		return
	}
	cmd := run.r.Commands[run.idx]
	if !c.conditionMet(cmd) {
		run.res.Skipped++
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandSkipped, Routine: run.res.ID, Device: cmd.Device})
		c.noteTouchBoundary(run, run.idx)
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

func (c *psvController) commandDone(run *psvRun, idx int, err error) {
	if run.res.Status.Finished() {
		return
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
		run.firstTouched[cmd.Device] = true
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandExecuted, Routine: run.res.ID,
			Device: cmd.Device, State: cmd.Target})
	}
	c.noteTouchBoundary(run, idx)
	run.idx++
	c.step(run)
}

func (c *psvController) noteTouchBoundary(run *psvRun, idx int) {
	d := run.r.Commands[idx].Device
	if idx == run.r.LastIndexOn(d) {
		run.lastTouchDone[d] = true
	}
}

// finish is the routine's finish point: PSV's failure rule 3* is evaluated
// here — the routine commits only if every touched device that failed has
// recovered, and no failure hit in the middle of its accesses.
func (c *psvController) finish(run *psvRun) {
	var bad []string
	for _, d := range run.r.Devices() {
		switch {
		case run.doomedEarly[d]:
			bad = append(bad, fmt.Sprintf("%s failed between accesses", d))
		case run.suspect[d] && c.failed[d]:
			bad = append(bad, fmt.Sprintf("%s still failed at finish point", d))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		c.abort(run, fmt.Sprintf("finish-point check: %v", bad))
		return
	}
	c.markCommitted(&run.res)
	c.applyCommit(run.r)
	c.serial = append(c.serial, order.RoutineNode(run.res.ID))
	c.unlock(run)
	c.tryStart()
}

func (c *psvController) abort(run *psvRun, reason string) {
	if run.res.Status.Finished() {
		return
	}
	c.markAborted(&run.res, reason)

	records := append([]cmdRecord(nil), run.executed...)
	if run.inflight != nil {
		records = append(records, *run.inflight)
		run.inflight = nil
	}
	restored := make(map[device.ID]bool)
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		run.res.RolledBack++
		if restored[rec.dev] {
			continue
		}
		restored[rec.dev] = true
		if rec.prior == device.StateUnknown {
			continue
		}
		c.emit(Event{Time: c.env.Now(), Kind: EvRolledBack, Routine: run.res.ID, Device: rec.dev, State: rec.prior})
		c.env.Exec(run.res.ID, routine.Command{Device: rec.dev, Target: rec.prior}, c.opts.DefaultShort, ignoreDone)
	}

	c.unlock(run)
	c.tryStart()
}

func (c *psvController) NotifyFailure(d device.ID) {
	c.failureDetected(d)
	for id := routine.ID(1); id <= c.nextID; id++ {
		run, ok := c.runs[id] // preloaded history has no run
		if !ok || run.res.Status != StatusRunning || !run.r.Touches(d) {
			continue
		}
		switch {
		case run.lastTouchDone[d]:
			// Failure after the routine's last touch of d: commit is still
			// possible if d recovers by the finish point (rule 3*).
			run.suspect[d] = true
		case run.firstTouched[d] || (run.inflight != nil && run.inflight.dev == d):
			// Failure in the middle of this routine's accesses to d: cannot be
			// serialized before or after the routine; it must abort (decided
			// at the finish point, in PSV style).
			run.doomedEarly[d] = true
		default:
			// Not touched yet: if d restarts before the routine's first
			// command on d, the failure serializes before the routine;
			// otherwise that command will fail and abort the routine.
		}
	}
}

func (c *psvController) NotifyRestart(d device.ID) {
	c.restartDetected(d)
}
