package visibility

import (
	"fmt"
	"slices"
	"time"

	"safehome/internal/device"
	"safehome/internal/lineage"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// evController implements Eventual Visibility (§4–§5): virtual locks tracked
// in a lineage table, early (positional) lock acquisition, pre-/post-leasing,
// commit compaction, failure/restart serialization, and a pluggable
// scheduler (FCFS, JiT or Timeline).
//
// Everything between "placed" and "committed" is a per-command path, so it
// is built not to allocate and not to hash: a routine resolves its devices
// to evDevice records once at submission, keeps its per-device execution
// state in a slice parallel to its cached Devices(), and is itself the
// completion the environment calls back: a run is one heap object holding
// its Result, its device slots and its completion. Its timers are typed
// too — a device slot is its pre-lease revocation timer, the run its JiT
// TTL — so arming one builds no closure either.
type evController struct {
	base

	table *lineage.Table
	graph *order.Graph
	sched evScheduler

	// runs holds the routines submitted since the controller was last
	// quiescent, in submission order. IDs are dense, so the run of routine
	// id is runs[id-firstID] (earlier routines, preloaded history included,
	// have no run). A finished routine's slot is nil: nothing refers to it
	// any more — its lock-accesses are gone from every lineage — and its
	// Result lives on in base. When the last open routine finishes, runs
	// empties and the precedence graph is sealed (sealIfQuiescent).
	runs    []*evRun
	firstID routine.ID
	// unsealed keeps the whole history in the precedence graph: tests set it
	// to hold the sealing controller to the one that never seals.
	unsealed bool
	// waitQ is the scheduler wait queue. Entries are dequeued by clearing
	// their queued flag (no splicing); the schedulers compact cleared and
	// finished entries out in a single pass during their scans, so queue
	// maintenance is O(n) per scan instead of one O(n) splice per removal.
	waitQ []*evRun
	devs  map[device.ID]*evDevice
}

// evDevice is the controller's state for one device.
type evDevice struct {
	lin *lineage.Lineage
	// waiters are the runs blocked on the device's lock, in blocking order.
	// onFree detaches the list while it wakes them and builds the next one
	// in spare, the backing array of the list before — blocking on a hot
	// device, where most woken runs block again at once, reuses two arrays
	// forever.
	waiters []*evRun
	spare   []*evRun
}

// evRun is the controller-side execution state of one routine.
type evRun struct {
	// res is the routine's Result, held here so that one object carries
	// both: base.results points at it until the first export after the run
	// finishes copies it into its write-once slot.
	res Result
	c   *evController
	r   *routine.Routine
	id  routine.ID

	placed      bool // accesses are in the lineage table
	running     bool // released to execute (scheduler decision)
	done        bool
	queued      bool // live entry in the controller's wait queue
	inflight    bool // Commands[idx] is executing
	doomed      bool
	prioritized bool // JiT: the TTL expired while the run waited

	idx int // next command to execute (the one in flight, while inflight)

	// devs is the per-device state, parallel to r.Devices(). inline backs
	// it for routines that touch at most len(inline) devices.
	devs   []runDev
	inline [4]runDev

	doomReason string

	// ttl is JiT's starvation timer, armed while the run waits (the run is
	// the Timer: Fire).
	ttl TimerHandle
}

// runDev is one routine's execution state on one device it touches. It is
// also the device's pre-lease revocation Timer (Fire).
type runDev struct {
	dev  *evDevice
	run  *evRun
	last int32 // index of the routine's last command on the device

	// executed counts the commands that took effect on the device and
	// lastExec is the index of the latest — what an abort rolls back, and in
	// which order.
	executed int32
	lastExec int32

	firstTouched  bool // a command of the routine took effect on the device
	lastTouchDone bool // the routine's last command on the device is over

	// preLeasedFrom is the routine this run was pre-leased the lock from (the
	// lease source, routine.None if not pre-leased); lease is the armed
	// revocation timer.
	preLeasedFrom routine.ID
	lease         TimerHandle
}

// newRun registers a submitted routine (see base.assign for owned) and
// builds its run.
func (c *evController) newRun(r *routine.Routine, owned bool) *evRun {
	run := &evRun{c: c}
	run.r = c.assign(r, owned, &run.res)
	run.id = run.res.ID
	devs := run.r.Devices()
	if len(devs) <= len(run.inline) {
		run.devs = run.inline[:len(devs)]
	} else {
		run.devs = make([]runDev, len(devs))
	}
	for i, d := range devs {
		run.devs[i].dev = c.device(d)
		run.devs[i].run = run
	}
	for i := range run.r.Commands {
		run.on(run.r.Commands[i].Device).last = int32(i)
	}
	return run
}

// CommandDone implements Completion for the run's in-flight command: at
// most one is in flight, and it is Commands[idx], so the run itself serves
// every command of the routine.
func (run *evRun) CommandDone(err error) { run.c.onCommandDone(run, err) }

// slot returns d's index in the routine's Devices(), or -1. Routines touch a
// handful of devices, so a scan beats any map.
func (run *evRun) slot(d device.ID) int {
	for i, rd := range run.r.Devices() {
		if rd == d {
			return i
		}
	}
	return -1
}

// on returns the run's state on a device the routine touches.
func (run *evRun) on(d device.ID) *runDev { return &run.devs[run.slot(d)] }

// uses reports whether the run has touched d or is touching it right now.
func (run *evRun) uses(d device.ID) bool {
	return run.on(d).firstTouched || (run.inflight && run.r.Commands[run.idx].Device == d)
}

func newEV(env Env, initial map[device.ID]device.State, opts Options) *evController {
	c := &evController{
		base:  newBase(env, initial, opts),
		table: lineage.NewTable(initial),
		graph: order.NewGraph(),
		devs:  make(map[device.ID]*evDevice, len(initial)),
	}
	switch opts.Scheduler {
	case SchedFCFS:
		c.sched = &fcfsScheduler{c: c}
	case SchedJiT:
		c.sched = &jitScheduler{c: c}
	default:
		c.sched = &tlScheduler{c: c}
	}
	return c
}

// device returns the controller's record for d, creating it on first use.
func (c *evController) device(d device.ID) *evDevice {
	dv, ok := c.devs[d]
	if !ok {
		dv = &evDevice{lin: c.table.Lineage(d)}
		c.devs[d] = dv
	}
	return dv
}

// run returns the run of an unfinished routine of this controller, or nil.
func (c *evController) run(id routine.ID) *evRun {
	if i := int(id - c.firstID); i >= 0 && i < len(c.runs) {
		return c.runs[i]
	}
	return nil
}

func (c *evController) Model() Model { return EV }

// SchedulerName reports the active scheduling policy.
func (c *evController) SchedulerName() string { return c.sched.kind().String() }

// Table exposes the lineage table for tests and the hub's inspection API.
func (c *evController) Table() *lineage.Table { return c.table }

// Footprint reports the per-routine scheduling state the controller keeps:
// the precedence graph's registered (unsealed) nodes and the run slots.
// Both cover only the routines opened since the controller was last
// quiescent.
func (c *evController) Footprint() (graphNodes, runSlots int) { return c.graph.Len(), len(c.runs) }

func (c *evController) Submit(r *routine.Routine) routine.ID { return c.submit(r, false) }

func (c *evController) SubmitOwned(r *routine.Routine) routine.ID { return c.submit(r, true) }

func (c *evController) submit(r *routine.Routine, owned bool) routine.ID {
	run := c.newRun(r, owned)
	if len(c.runs) == 0 {
		c.firstID = run.id
	}
	c.runs = append(c.runs, run)
	c.sched.onSubmit(run)
	c.checkInvariants("submit")
	return run.id
}

// Serialization returns the current serialization order implied by the
// precedence graph: committed and in-flight routines, failure events, and
// restart events. Aborted routines never appear (§3).
func (c *evController) Serialization() []order.Node { return c.graph.Order() }

// CompactBefore folds released lock-access history whose estimated hold
// ended before t into the committed states (lineage.Table.CompactBefore) and
// keeps the controller's committed-state view in sync. The home runtime
// calls this on its history-horizon cadence so per-device gap scans stay
// bounded under sustained load. It returns the number of accesses folded.
func (c *evController) CompactBefore(t time.Time) int {
	n := c.table.CompactBefore(t)
	if n > 0 {
		for _, d := range c.table.Devices() {
			if st := c.table.Committed(d); st != device.StateUnknown && c.committed[d] != st {
				c.setCommitted(d, st)
			}
		}
		c.checkInvariants("compact-before")
	}
	return n
}

// --- scheduler plumbing -----------------------------------------------------

// evScheduler is the strategy interface for §5's scheduling policies.
type evScheduler interface {
	kind() SchedulerKind
	// onSubmit decides where (and when) the new routine is placed.
	onSubmit(run *evRun)
	// onFree is invoked whenever a lock-access on a device is released or
	// removed.
	onFree()
	// onRoutineDone is invoked after a routine commits or aborts.
	onRoutineDone()
	// rebase is invoked when the controller seals: every routine ID up to
	// id is finished and will never be placed against again.
	rebase(id routine.ID)
}

// placeAtEnd appends Scheduled accesses for every device the routine touches
// to the tail of the corresponding lineages, and records the implied
// precedence edges. Appending is always consistent with the existing order
// (the routine becomes a sink of the precedence graph).
func (c *evController) placeAtEnd(run *evRun) {
	now := c.env.Now()
	node := order.RoutineNode(run.id)
	c.graph.AddNode(node)
	for i, d := range run.r.Devices() {
		l := run.devs[i].dev.lin
		start := l.TailStart(now)
		for _, a := range l.Accesses {
			// Ignore duplicate-edge errors; appending cannot create cycles.
			_ = c.graph.AddEdge(order.RoutineNode(a.Routine), node)
		}
		// Compaction may have emptied the lineage, but the folded baseline
		// writer still precedes every later access (the node being placed has
		// no outgoing edges yet, so this cannot cycle). A sealed writer is
		// not in the graph: the sealed prefix already orders it first.
		if lf := l.LastFolded(); lf != routine.None && lf != run.id && c.graph.Has(order.RoutineNode(lf)) {
			_ = c.graph.AddEdge(order.RoutineNode(lf), node)
		}
		err := l.PlaceAt(len(l.Accesses), lineage.Access{
			Routine:  run.id,
			Status:   lineage.Scheduled,
			Start:    start,
			Duration: run.r.HoldEstimate(d, c.opts.DefaultShort),
		})
		if err != nil {
			panic(fmt.Sprintf("visibility: placeAtEnd: %v", err))
		}
	}
	run.placed = true
}

// startRun releases the routine for execution; it will acquire each device's
// lock lazily as it reaches commands on that device.
func (c *evController) startRun(run *evRun) {
	if run.running || run.done {
		return
	}
	run.running = true
	run.ttl.Cancel()
	run.ttl = TimerHandle{}
	c.advance(run)
}

// advance drives a routine's execution state machine: acquire the next
// command's lock (or block), evaluate its condition, and execute it.
func (c *evController) advance(run *evRun) {
	if run.done || !run.running || run.inflight {
		return
	}
	if run.doomed {
		c.abortRun(run)
		return
	}
	if run.idx >= len(run.r.Commands) {
		c.commitRun(run)
		return
	}
	cmd := run.r.Commands[run.idx]
	d := cmd.Device
	rd := run.on(d)
	l := rd.dev.lin

	if !l.CanAcquire(run.id) {
		rd.dev.waiters = append(rd.dev.waiters, run)
		return
	}

	if st, _ := l.Status(run.id); st == lineage.Scheduled {
		if err := l.SetStatus(run.id, lineage.Acquired); err != nil {
			panic(fmt.Sprintf("visibility: acquire: %v", err))
		}
		if rd.preLeasedFrom != routine.None {
			// The lease clock starts ticking when the destination actually
			// begins using the device.
			c.armPreLeaseRevocation(rd)
		}
	}
	if run.res.Started.IsZero() {
		c.markStarted(&run.res)
	}

	// Conditional commands read the home through the lineage table's inferred
	// current state (Fig 8) — never by querying devices.
	if cmd.Condition != nil && c.table.CurrentState(cmd.Condition.Device) != cmd.Condition.Equals {
		run.res.Skipped++
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandSkipped, Routine: run.id, Device: d})
		c.afterCommand(run, rd)
		run.idx++
		c.advance(run)
		return
	}

	run.inflight = true
	c.env.Exec(run.id, cmd, c.opts.hold(cmd), run)
}

// onCommandDone is the completion of the run's in-flight command,
// Commands[idx]: idx only moves here and on the condition-skip path, and
// neither runs while a command is in flight.
func (c *evController) onCommandDone(run *evRun, err error) {
	run.inflight = false
	if run.done {
		return
	}
	cmd := run.r.Commands[run.idx]
	d := cmd.Device
	rd := run.on(d)
	if err != nil {
		c.emit(Event{Time: c.env.Now(), Kind: EvCommandFailed, Routine: run.id, Device: d, Detail: err.Error()})
		if cmd.Must() {
			c.doom(run, fmt.Sprintf("must command on %s failed: %v", d, err))
			c.advance(run)
			return
		}
		run.res.BestEffortFailures++
	} else {
		run.res.Executed++
		rd.firstTouched = true
		rd.executed++
		rd.lastExec = int32(run.idx)
		if err := rd.dev.lin.SetTarget(run.id, cmd.Target); err == nil {
			c.emit(Event{Time: c.env.Now(), Kind: EvCommandExecuted, Routine: run.id, Device: d, State: cmd.Target})
		}
	}
	c.afterCommand(run, rd)
	run.idx++
	c.advance(run)
	c.checkInvariants("command-done")
}

// afterCommand handles last-touch bookkeeping and post-leasing once
// Commands[idx], a command on rd's device, is over.
func (c *evController) afterCommand(run *evRun, rd *runDev) {
	if run.idx != int(rd.last) {
		return
	}
	rd.lastTouchDone = true
	rd.lease.Cancel()
	rd.lease = TimerHandle{}
	if c.opts.PostLease && c.canPostLease(run, rd) {
		c.releaseAccess(run, rd.dev)
	}
}

// canPostLease checks the dirty-read restriction of §4.1: the lock may not be
// released early if this routine wrote the device and the next routine in the
// device's lineage reads it through a conditional command.
func (c *evController) canPostLease(run *evRun, rd *runDev) bool {
	if !rd.firstTouched {
		return true // nothing was written; no dirty read possible
	}
	next := c.run(rd.dev.lin.Next(run.id))
	return next == nil || !next.r.Reads(rd.dev.lin.Device)
}

// releaseAccess marks the routine's lock-access on the device Released and
// wakes successors (the post-lease hand-off of Fig 6c).
func (c *evController) releaseAccess(run *evRun, dv *evDevice) {
	st, ok := dv.lin.Status(run.id)
	if !ok || st == lineage.Released {
		return
	}
	if err := dv.lin.SetStatus(run.id, lineage.Released); err != nil {
		panic(fmt.Sprintf("visibility: release: %v", err))
	}
	c.onFree(dv)
}

// onFree wakes routines blocked on the device and gives the scheduler a
// chance to start waiting routines.
func (c *evController) onFree(dv *evDevice) {
	if blocked := dv.waiters; len(blocked) > 0 {
		// Detach the list before waking anyone: advance() may block runs on
		// the device again, which must land in a fresh list, not the one
		// being iterated.
		dv.waiters, dv.spare = dv.spare[:0], nil
		for _, run := range blocked {
			c.advance(run)
		}
		// Hand the emptied backing array over for the list after next —
		// unless a nested onFree on this device (a woken run finishing with
		// it on the spot) got there first.
		if dv.spare == nil {
			clear(blocked)
			dv.spare = blocked[:0]
		}
	}
	c.sched.onFree()
}

// commitRun finalizes a successfully completed routine: committed states are
// updated and its lock-accesses compacted away (Fig 7).
func (c *evController) commitRun(run *evRun) {
	run.done = true
	run.running = false
	c.cancelTimers(run)
	c.markCommitted(&run.res)

	for i := range run.devs {
		l := run.devs[i].dev.lin
		// A Scheduled access means the routine never actually used the device
		// (e.g. every command on it was condition-skipped): drop the entry
		// without folding history beneath it.
		if st, ok := l.Status(run.id); ok && st == lineage.Scheduled {
			l.Remove(run.id)
		}
		l.Compact(run.id)
		c.setCommitted(l.Device, l.Committed)
	}
	c.runs[run.id-c.firstID] = nil
	for i := range run.devs {
		c.onFree(run.devs[i].dev)
	}
	c.sched.onRoutineDone()
	c.sealIfQuiescent()
	c.checkInvariants("commit")
}

// sealIfQuiescent seals the controller's scheduling state once no routine
// is open. Nothing finished can change a scheduling decision any more:
// every lineage is empty (commit compaction and abort removal took each
// routine's accesses with it), no graph node can gain a predecessor or be
// removed, and every later routine gets a larger ID — Graph.Seal's
// precondition. So the graph folds into its sealed prefix, the run slots
// empty and the schedulers' ID-indexed scratch sets restart past the sealed
// IDs: what the controller keeps per routine stops growing with history.
func (c *evController) sealIfQuiescent() {
	if c.unsealed || c.PendingCount() != 0 {
		return
	}
	c.graph.Seal()
	clear(c.runs)
	c.runs = c.runs[:0]
	c.sched.rebase(c.nextID)
}

// doom marks a routine for abort; the abort happens as soon as no command is
// in flight.
func (c *evController) doom(run *evRun, reason string) {
	if run.done || run.doomed {
		return
	}
	run.doomed = true
	run.doomReason = reason
	if !run.inflight {
		c.abortRun(run)
	}
}

// abortRun aborts a routine: its executed commands are rolled back per §4.3
// (restore each device it was the last acquirer of to the previous lineage
// entry's state), its lock-accesses and graph node are removed, and waiting
// routines are given a chance to proceed.
func (c *evController) abortRun(run *evRun) {
	if run.done {
		return
	}
	run.done = true
	run.running = false
	c.cancelTimers(run)
	reason := run.doomReason
	if reason == "" {
		reason = "aborted"
	}
	c.markAborted(&run.res, reason)

	// Devices this routine actually modified, in reverse touch order: latest
	// executed command first.
	var modified []*runDev
	for i := range run.devs {
		if rd := &run.devs[i]; rd.executed > 0 {
			modified = append(modified, rd)
		}
	}
	slices.SortFunc(modified, func(a, b *runDev) int { return int(b.lastExec - a.lastExec) })

	for _, rd := range modified {
		l := rd.dev.lin
		if !l.LastAcquirerWas(run.id) {
			// Another routine has since acquired the device (it obtained the
			// lock via a lease); its effect supersedes ours — no restore.
			continue
		}
		target := l.RollbackTarget(run.id)
		run.res.RolledBack += int(rd.executed)
		if target == device.StateUnknown || c.failed[l.Device] {
			continue
		}
		if l.CurrentState() == target {
			continue
		}
		c.emit(Event{Time: c.env.Now(), Kind: EvRolledBack, Routine: run.id, Device: l.Device, State: target})
		c.env.Exec(run.id, routine.Command{Device: l.Device, Target: target}, c.opts.DefaultShort, ignoreDone)
	}

	// Table order, not the routine's: the order successors are woken in is
	// part of the schedule.
	removed := c.table.RemoveRoutine(run.id)
	c.graph.Remove(order.RoutineNode(run.id))
	c.removeFromWaitQ(run)
	c.runs[run.id-c.firstID] = nil
	for _, d := range removed {
		c.onFree(c.device(d))
	}
	c.sched.onRoutineDone()
	c.sealIfQuiescent()
	c.checkInvariants("abort")
}

// enqueueWait adds a run to the scheduler wait queue (idempotent).
//
// Invariant: enqueueWait is only reachable from Submit (via the schedulers'
// onSubmit), never from the controller's internal callbacks, so it cannot
// run while a scheduler scan is compacting the queue. The scans rely on
// this: they rewrite c.waitQ in place and would silently drop an entry
// appended mid-scan.
func (c *evController) enqueueWait(run *evRun) {
	if run.queued {
		return
	}
	run.queued = true
	c.waitQ = append(c.waitQ, run)
}

// removeFromWaitQ dequeues a run by clearing its queued flag; the stale
// slice entry is compacted out by the next scheduler scan.
func (c *evController) removeFromWaitQ(run *evRun) {
	run.queued = false
}

func (c *evController) cancelTimers(run *evRun) {
	run.ttl.Cancel()
	run.ttl = TimerHandle{}
	for i := range run.devs {
		rd := &run.devs[i]
		rd.lease.Cancel()
		rd.lease = TimerHandle{}
	}
}

// armPreLeaseRevocation starts the revocation timer for a pre-leased lock: if
// the destination routine has not finished with the device within the
// estimated span of its accesses to it (times the leniency factor) and
// another routine is blocked waiting for the device, the lease is revoked and
// the destination aborts (§4.1). When nobody is waiting the lease is simply
// extended for another interval — revocation exists to prevent starvation,
// not to punish slow routines that block no one. The device slot is the
// timer (runDev.Fire).
func (c *evController) armPreLeaseRevocation(rd *runDev) {
	rd.lease = c.env.After(c.leaseTimeout(rd), rd)
}

// leaseTimeout is one revocation interval for the run's pre-lease of rd's
// device.
func (c *evController) leaseTimeout(rd *runDev) time.Duration {
	timeout := time.Duration(float64(rd.run.r.SpanEstimate(rd.dev.lin.Device, c.opts.DefaultShort)) * c.opts.LeaseLeniency)
	if timeout <= 0 {
		timeout = c.opts.DefaultShort
	}
	return timeout
}

// Fire implements Timer: a pre-lease revocation interval ran out.
func (rd *runDev) Fire() {
	run := rd.run
	c := run.c
	if run.done {
		return
	}
	st, ok := rd.dev.lin.Status(run.id)
	if !ok || st == lineage.Released {
		return
	}
	timeout := c.leaseTimeout(rd)
	if len(rd.dev.waiters) == 0 {
		// No routine is blocked on the device: extend the lease.
		rd.lease = c.env.After(timeout, rd)
		return
	}
	c.doom(run, fmt.Sprintf("pre-lease of %s from R%d revoked after %v", rd.dev.lin.Device, rd.preLeasedFrom, timeout))
	if !run.inflight {
		c.abortRun(run)
	}
}

// --- failure / restart serialization (§3) -----------------------------------

func (c *evController) NotifyFailure(d device.ID) {
	n := c.failureDetected(d)
	c.graph.AddNode(n)

	for _, run := range c.runs {
		if run == nil || !run.placed || !run.r.Touches(d) {
			continue // case 1: unrelated routines are unaffected
		}
		switch {
		case run.on(d).lastTouchDone:
			// Case 3: the failure happened after this routine's last touch of
			// the device — serialize the failure event after the routine.
			_ = c.graph.AddEdge(order.RoutineNode(run.id), n)
		case run.uses(d):
			// Case 4: the failure hit in the middle of this routine's
			// accesses; it cannot be serialized around the routine. Abort now
			// (EV aborts affected routines earlier rather than later, §7.4).
			c.doom(run, fmt.Sprintf("device %s failed during execution", d))
			if !run.inflight {
				c.abortRun(run)
			}
		default:
			// The routine has not touched the device yet. If the device
			// restarts before the routine's first command on it, the failure
			// and restart serialize before the routine (case 2); otherwise
			// that command will fail and the must/best-effort rules apply.
		}
	}
	c.checkInvariants("failure")
}

func (c *evController) NotifyRestart(d device.ID) {
	prevFail := order.FailureNode(d, c.failSeq[d]-1)
	n := c.restartDetected(d)
	c.graph.AddNode(n)
	if c.failSeq[d] > 0 {
		_ = c.graph.AddEdge(prevFail, n)
	}
	// Case 2: routines that have not yet touched the device serialize after
	// the failure/restart pair.
	for _, run := range c.runs {
		if run == nil || !run.placed || !run.r.Touches(d) || run.on(d).firstTouched {
			continue
		}
		_ = c.graph.AddEdge(n, order.RoutineNode(run.id))
	}
	// Devices come back in their pre-failure physical state; routines blocked
	// on commands need no special handling — their next Exec will succeed.
	c.checkInvariants("restart")
}

func (c *evController) checkInvariants(where string) {
	if !c.opts.CheckInvariants {
		return
	}
	if err := c.table.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("visibility: after %s: %v\n%s", where, err, c.table.String()))
	}
}
