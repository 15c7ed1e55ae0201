// Package runtime implements the home runtime every SafeHome deployment
// shape shares: one event-loop goroutine that exclusively owns a single
// home's concurrency controller, execution environment, clock, device fleet,
// routine bank, activity log and failure-detector wiring.
//
// All access is funneled through a typed operation mailbox — tagged op
// structs in a bounded ring, not func() closures — so the visibility
// controllers' single-threaded contract holds with no locks anywhere above
// them: internal/hub fronts one wall-clock runtime, internal/manager shards
// front many simulated-clock runtimes, and internal/live posts actuator
// completions and timer callbacks into the same mailbox instead of
// re-entering a hub mutex.
//
// The loop drains up to Config.Batch operations per wakeup to amortize
// channel signaling, and the mailbox applies admission control: when the
// ring is full, mutating operations fail fast with ErrOverloaded (the HTTP
// layers answer 429) instead of blocking callers indefinitely, with
// accepted/rejected counters exposed through MailboxStats.
//
// See ARCHITECTURE.md at the repository root for how the runtime layers
// between the hub/manager front-ends and the visibility controllers.
package runtime

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"safehome/internal/device"
	"safehome/internal/failure"
	"safehome/internal/journal"
	"safehome/internal/live"
	"safehome/internal/routine"
	"safehome/internal/sim"
	"safehome/internal/stats"
	"safehome/internal/visibility"
)

// Clock selects how a home runtime experiences time.
type Clock int

const (
	// ClockVirtual drains the home's discrete-event simulator after every
	// mutating operation: routines run to completion at virtual speed.
	ClockVirtual Clock = iota
	// ClockPaced runs the simulator against the wall clock: time advances
	// only when an owner (the manager's shard pumper) posts Pump operations.
	ClockPaced
	// ClockWall is real time over a device actuator (the live hub).
	ClockWall
)

// Config configures a HomeRuntime.
type Config struct {
	// ID names the home (diagnostics only).
	ID string
	// Clock selects virtual, paced or wall-clock time. NewLive forces
	// ClockWall.
	Clock Clock
	// Model is the visibility model; Scheduler the EV scheduling policy.
	Model     visibility.Model
	Scheduler visibility.SchedulerKind
	// DefaultShort is the assumed hold of zero-duration commands.
	DefaultShort time.Duration
	// ActuationLatency adds a fixed per-command latency (simulated clocks).
	ActuationLatency time.Duration
	// FailureInterval is the failure detector's probe period (wall clock).
	FailureInterval time.Duration
	// EventLog caps the in-memory activity log; 0 disables the log (the
	// multi-tenant manager disables it by default, the hub keeps ~1k events).
	EventLog int
	// MailboxDepth bounds the operation ring (default 128).
	MailboxDepth int
	// Batch is the maximum operations drained per loop wakeup (default 32).
	Batch int
	// HistoryHorizon bounds how long an EV home retains released lock-access
	// history: once per horizon the loop folds fully released accesses older
	// than it into the committed states (lineage.Table.CompactBefore), so
	// long-lived homes don't grow their per-device gap scans with history.
	// 0 means DefaultHistoryHorizon; negative disables compaction.
	HistoryHorizon time.Duration
	// DataDir enables durability: accepted mutating operations, routine
	// outcomes, committed device states and sequenced activity events are
	// group-committed to a write-ahead journal in this directory (one fsync
	// per batch drain, not per operation), checkpointed periodically, and
	// recovered on the next construction with the same DataDir — finished
	// results, committed states and event cursors come back exactly, while
	// routines in flight at the crash are aborted with rollback. Empty (the
	// default) keeps the runtime memory-only with an unchanged hot path.
	// The journal appends through Journal.Writer, the log of the fleet the
	// directory's owner opened; construction fails without one.
	DataDir string
	// Journal tunes the write-ahead journal (writer, checkpoint cadence,
	// tier). Only meaningful with DataDir set.
	Journal journal.Options
	// Observer additionally receives every controller event (e.g. the
	// manager's cross-shard counters). It runs on the loop goroutine.
	Observer visibility.Observer
	// OnSimEvents, if set, receives the number of newly processed simulator
	// events after every pump (the manager's sim_events counter).
	OnSimEvents func(n int)
	// Actuation tunes the live environment's device path (per-attempt
	// timeout, retry backoff, circuit breaker). Wall-clock runtimes only.
	Actuation live.Options
	// OnPoison, if set, is called once from the dying loop goroutine after a
	// panic has torn the home down (mailbox closed, journal abandoned). An
	// owner uses it to trigger a supervised restart; it must not block on the
	// poisoned runtime other than Close, which merely joins the dead loop.
	OnPoison func(err error)
	// Metrics, if set, receives in-loop telemetry (stage-latency histograms,
	// snapshot publish counts) recorded with single atomic operations on the
	// loop goroutine. One LoopMetrics is shared by every home of a manager;
	// nil disables recording with one nil check on the hot path.
	Metrics *LoopMetrics
}

const (
	// DefaultMailboxDepth is the default operation-ring capacity.
	DefaultMailboxDepth = 128
	// DefaultBatch is the default maximum ops drained per loop wakeup.
	DefaultBatch = 32
	// DefaultHistoryHorizon is the default lock-access history retention on
	// the home's clock (see Config.HistoryHorizon). An hour is far beyond any
	// live routine's span, so folding history that old never changes what a
	// rollback would restore in practice.
	DefaultHistoryHorizon = time.Hour
)

func (c Config) normalized() Config {
	if c.MailboxDepth < 1 {
		c.MailboxDepth = DefaultMailboxDepth
	}
	if c.Batch < 1 {
		c.Batch = DefaultBatch
	}
	if c.FailureInterval <= 0 {
		c.FailureInterval = failure.DefaultInterval
	}
	if c.HistoryHorizon == 0 {
		c.HistoryHorizon = DefaultHistoryHorizon
	}
	return c
}

func (c Config) options() visibility.Options {
	opts := visibility.DefaultOptions(c.Model)
	opts.Scheduler = c.Scheduler
	if c.DefaultShort > 0 {
		opts.DefaultShort = c.DefaultShort
	}
	return opts
}

// HomeRuntime owns one home end to end: controller, env, clock, fleet, bank,
// activity log, triggers and failure-detector wiring. All fields below the
// mailbox are owned by the loop goroutine while the runtime is open; once
// Close has drained the loop they may be read inline.
type HomeRuntime struct {
	cfg Config
	reg *device.Registry

	// Exactly one environment is wired per runtime:
	simc  *sim.Sim      // ClockVirtual / ClockPaced
	fleet *device.Fleet // simulated clocks only
	lenv  *live.Env     // ClockWall only

	env       visibility.Env
	ctrl      visibility.Controller
	compacter historyCompacter // ctrl, when it supports history compaction (EV)
	bank      *routine.Bank
	detector  *failure.Detector // ClockWall only

	ch   chan op
	done chan struct{}

	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once

	detectOnce   sync.Once // arms the detector (Start) or retires it unarmed (stopDetector)
	cancelDetect context.CancelFunc
	started      time.Time

	accepted stats.Counter
	rejected stats.Counter

	// nextDue publishes the earliest pending simulator event (unix nanos,
	// 0 = none) so a paced-clock pumper can skip idle homes without touching
	// loop-owned state. pumpQueued bounds in-flight pumps to one.
	nextDue    atomic.Int64
	pumpQueued atomic.Bool

	// lastActive is the wall time (unix nanos) of the last admitted mutating
	// operation — the idle clock the manager's hibernation freezer watches.
	// Queries do not bump it: a home polled for status but never commanded
	// is still idle.
	lastActive atomic.Int64

	// snap is the read path: the loop publishes an immutable Snapshot here
	// once per batch drain (see snapshot.go), and queries answer from it
	// without entering the mailbox.
	snap atomic.Pointer[Snapshot]

	// crashed turns Close's graceful drain into a SIGKILL-equivalent stop
	// (see Crash); jErr records the error that disabled journaling, if any.
	crashed atomic.Bool
	jErr    atomic.Value

	// freezing makes the final checkpoint of Freeze's Close carry the
	// frozen summary, which the loop leaves in frozen.
	freezing atomic.Bool
	frozen   *journal.FrozenHome

	// poisoned is set when a panic killed the loop; panicErr records the
	// recovered panic value and poisonRec the full forensics record —
	// message plus goroutine stack — also persisted to DataDir/poison.json
	// (see poison.go). panicStack is loop-owned scratch between the runBatch
	// recover and poison.
	poisoned   atomic.Bool
	panicErr   atomic.Value
	poisonRec  atomic.Pointer[PoisonRecord]
	panicStack string

	// Loop-owned state:
	j               *journalState       // write-ahead journal (nil without DataDir)
	observe         visibility.Observer // the full observer chain (journal tap, event log, user)
	elog            *eventLog
	snapDirty       bool      // an op since the last publish changed observable state
	fleetVersion    uint64    // fleet.Version() at the last ground-truth capture
	lastCompact     time.Time // home-clock time of the last history compaction
	simDrained      int       // sim.Processed at the last OnSimEvents flush
	nextTrigger     TriggerHandle
	triggers        map[TriggerHandle]*trigger
	triggersStopped bool // Close ran opStopTriggers; refuse new schedules
	// retiredTriggers keeps the specs stopAllTriggers cleared so the final
	// checkpoint of a clean Close still carries them: a trigger armed before
	// a graceful restart must re-arm afterwards, exactly as after a crash.
	retiredTriggers []ScheduledTrigger
}

// NewSim builds a runtime over an in-memory simulated fleet: ClockVirtual
// (experiments, benchmarks, the manager's default) or ClockPaced (the
// manager's serving mode). The loop goroutine starts immediately.
func NewSim(cfg Config, reg *device.Registry) (*HomeRuntime, error) {
	if cfg.Clock == ClockWall {
		return nil, fmt.Errorf("runtime: NewSim cannot run on the wall clock; use NewLive")
	}
	rt, rec, err := newRuntime(cfg, reg)
	if err != nil {
		return nil, err
	}
	rt.fleet = device.NewFleet(reg)
	if cfg.Clock == ClockPaced {
		rt.simc = sim.New(time.Now())
	} else {
		rt.simc = sim.NewAtEpoch()
	}
	if rec != nil {
		// Rollback-to-committed ground truth: after a crash the fleet comes
		// back in the last committed states — in-flight routines' partial
		// effects are undone, per the paper's abort semantics.
		for d, s := range rec.States {
			_ = rt.fleet.ForceState(d, s) // devices gone from the registry are skipped
		}
	}
	env := visibility.NewSimEnv(rt.simc, rt.fleet)
	env.ActuationLatency = rt.cfg.ActuationLatency
	rt.env = env
	return rt.run(rt.fleet.Snapshot(), rec), nil
}

// NewLive builds a wall-clock runtime over a device actuator, with the live
// environment posting completions and timer callbacks into the mailbox and a
// failure detector wired to the controller. The loop goroutine starts
// immediately; Start launches the detector's probe loop.
func NewLive(cfg Config, reg *device.Registry, actuator device.Actuator) (*HomeRuntime, error) {
	if actuator == nil {
		return nil, fmt.Errorf("runtime: nil actuator")
	}
	cfg.Clock = ClockWall
	rt, rec, err := newRuntime(cfg, reg)
	if err != nil {
		return nil, err
	}
	rt.lenv = live.NewWithOptions(rt, actuator, rt.cfg.Actuation)
	rt.env = rt.lenv

	// Seed the controller's committed-state view from the devices' initial
	// metadata; unknown initial states are left for the first routines to
	// set. Recovered committed states override the factory defaults.
	initial := make(map[device.ID]device.State)
	for _, info := range reg.All() {
		if info.Initial != device.StateUnknown {
			initial[info.ID] = info.Initial
		}
	}
	if rec != nil {
		for d, s := range rec.States {
			if _, ok := reg.Get(d); ok {
				initial[d] = s
			}
		}
	}
	rt.detector = failure.NewDetector(actuator, reg.IDs(), failure.Options{
		Interval:  rt.cfg.FailureInterval,
		OnFailure: func(id device.ID) { _ = rt.post(op{kind: opNotifyFailure, dev: id}) },
		OnRestart: func(id device.ID) { _ = rt.post(op{kind: opNotifyRestart, dev: id}) },
	})
	rt.lenv.OnContact = func(id device.ID, ok bool) {
		if ok {
			rt.detector.ReportContact(id)
		} else {
			rt.detector.ReportSilence(id)
		}
	}
	return rt.run(initial, rec), nil
}

// run finishes a constructor: the controller over rt.env from the initial
// committed states, the recovered state replayed into it, the first
// snapshot published, and the loop started.
func (rt *HomeRuntime) run(initial map[device.ID]device.State, rec *journal.Recovered) *HomeRuntime {
	rt.ctrl = visibility.New(rt.env, initial, rt.controllerOptions())
	rt.compacter, _ = rt.ctrl.(historyCompacter)
	if rec != nil {
		rt.recoverFrom(rec)
	}
	rt.publish(true) // initial snapshot: readers never see a nil pointer
	if rec != nil {
		rt.finishRecovery(rec)
	}
	// Publish the first simulator deadline before the loop exists: a
	// recovered home whose re-armed triggers are its only pending work would
	// otherwise sit at nextDue 0 — invisible to the shard pumper — until
	// some unrelated op ran a batch, and its triggers would never fire.
	rt.publishNextDue()
	go rt.loop()
	return rt
}

// newRuntime starts a constructor: the runtime's state and its recovered
// journal (nil without a DataDir or durable state).
func newRuntime(cfg Config, reg *device.Registry) (*HomeRuntime, *journal.Recovered, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, nil, fmt.Errorf("runtime: home %q needs at least one device", cfg.ID)
	}
	cfg = cfg.normalized()
	rt := &HomeRuntime{
		cfg:      cfg,
		reg:      reg,
		bank:     routine.NewBank(),
		ch:       make(chan op, cfg.MailboxDepth),
		done:     make(chan struct{}),
		started:  time.Now(),
		triggers: make(map[TriggerHandle]*trigger),
		elog:     newEventLog(cfg.EventLog),
	}
	rt.lastActive.Store(rt.started.UnixNano())
	rec, err := rt.openJournal()
	return rt, rec, err
}

// controllerOptions chains the journal tap and the runtime's activity log in
// front of the configured observer, and wires the journal's committed-state
// sink. The whole chain runs on the loop goroutine only.
func (rt *HomeRuntime) controllerOptions() visibility.Options {
	opts := rt.cfg.options()
	user := rt.cfg.Observer
	journaled := rt.j != nil
	metered := rt.cfg.Metrics != nil
	if journaled || metered || rt.cfg.EventLog > 0 {
		opts.Observer = func(e visibility.Event) {
			if rt.j != nil {
				rt.collectJournal(e)
			}
			if rt.cfg.EventLog > 0 {
				rt.recordEvent(e)
			}
			if metered {
				rt.recordStage(e)
			}
			if user != nil {
				user(e)
			}
		}
	} else {
		opts.Observer = user
	}
	rt.observe = opts.Observer
	if journaled {
		opts.StateSink = func(d device.ID, s device.State) {
			if rt.j != nil {
				rt.noteStateChange(d, s)
			}
		}
	}
	return opts
}

func (rt *HomeRuntime) recordEvent(e visibility.Event) { rt.elog.append(e) }

// --- lifecycle ------------------------------------------------------------------

// Start launches background activity (the wall-clock failure detector's
// probe loop) — at most once, and not after the runtime stopped.
// Simulated-clock runtimes have no background activity.
func (rt *HomeRuntime) Start() {
	rt.detectOnce.Do(func() {
		if rt.detector != nil {
			ctx, cancel := context.WithCancel(context.Background())
			rt.cancelDetect = cancel
			go rt.detector.Run(ctx)
		}
	})
}

// stopDetector stops the probe loop, if armed, and keeps it from arming.
func (rt *HomeRuntime) stopDetector() {
	rt.detectOnce.Do(func() {})
	if rt.cancelDetect != nil {
		rt.cancelDetect()
	}
}

// Close stops background activity, waits for in-flight routines' command
// cascades to finish, drains the mailbox and the simulator to quiescence,
// and joins the loop goroutine. Close is idempotent; read-only queries keep
// working on the quiesced state afterwards, while mutations return
// ErrClosed.
func (rt *HomeRuntime) Close() {
	rt.closeOnce.Do(func() {
		rt.stopDetector()
		// Stop the trigger scheduler before quiescing: a recurring trigger
		// whose routine hold overlaps its interval would otherwise keep
		// feeding new commands into the cascade and Wait would never settle.
		rp := newReply()
		if err := rt.post(op{kind: opStopTriggers, reply: rp}); err != nil {
			rp.discard()
		} else {
			rp.await()
		}
		if rt.lenv != nil {
			// Quiesce the command cascade: Wait returns once every in-flight
			// command goroutine has posted its completion, the barrier makes
			// the loop apply those completions — which may chain a routine's
			// next command or an abort rollback, i.e. new Exec goroutines —
			// and Idle detects that case, so we go around again until a full
			// round spawns nothing.
			for {
				rt.lenv.Wait()
				rp := newReply()
				if err := rt.post(op{kind: opBarrier, reply: rp}); err != nil {
					rp.discard()
					break
				}
				rp.await()
				if rt.lenv.Idle() {
					break
				}
			}
		}
		rt.closeMu.Lock()
		rt.closed = true
		close(rt.ch)
		rt.closeMu.Unlock()
	})
	<-rt.done
}

// Crash is the SIGKILL-equivalent stop used by crash drills and recovery
// tests: no graceful drain, no trigger teardown, no final journal flush or
// checkpoint. Queued-but-unapplied operations are answered with ErrClosed
// (their callers were never acknowledged), the loop exits immediately, and
// only what the journal group-committed before the crash survives — which
// is exactly what a recovery from the same DataDir restores. The runtime is
// unusable afterwards; Close becomes a no-op.
func (rt *HomeRuntime) Crash() {
	rt.closeOnce.Do(func() {
		rt.crashed.Store(true)
		rt.stopDetector()
		rt.closeMu.Lock()
		rt.closed = true
		close(rt.ch)
		rt.closeMu.Unlock()
	})
	<-rt.done
	// The loop has exited without touching the journal (no flush, no
	// checkpoint); release its file descriptors and directory lock the way
	// process death would, so the data directory can be reopened.
	if rt.j != nil {
		rt.j.jrn.Abandon()
		rt.j = nil
	}
}

// pendingReply is one deferred answer: the loop applies a whole batch,
// publishes the resulting snapshot, and only then delivers replies, so a
// caller whose mutation returned is guaranteed to find its effect in the
// published snapshot — and so is every reader that starts after it.
type pendingReply struct {
	rp  *reply
	res result
}

// loop is the home's event loop: batch-dequeue up to cfg.Batch operations per
// wakeup, apply them in arrival order, publish one snapshot for the whole
// batch, then deliver the batch's replies and the next simulator deadline for
// the pumper. When the ring closes it drains every queued operation, cancels
// triggers, runs the simulator to quiescence, publishes the final snapshot
// and exits.
func (rt *HomeRuntime) loop() {
	defer close(rt.done)
	batch := make([]op, 0, rt.cfg.Batch)
	replies := make([]pendingReply, 0, rt.cfg.Batch)
	open := true
	for open {
		o, ok := <-rt.ch
		if !ok {
			break
		}
		if rt.crashed.Load() {
			rt.drainCrashed(o)
			return
		}
		batch = append(batch[:0], o)
	fill:
		for len(batch) < rt.cfg.Batch {
			select {
			case next, ok := <-rt.ch:
				if !ok {
					open = false
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		if err := rt.runBatch(batch, &replies); err != nil {
			rt.poison(err)
			return
		}
	}
	if rt.crashed.Load() {
		return // SIGKILL-equivalent: no drain, no final flush or checkpoint
	}
	rt.shutdown()
}

// runBatch applies one dequeued batch and the post-batch machinery (history
// compaction, group commit, snapshot publish, checkpoint, replies). A panic
// anywhere inside is recovered and returned as an error: the op that panicked
// and everything behind it — including replies already collected but not yet
// delivered — are answered with ErrPoisoned, since none of them were
// acknowledged and none will be journaled.
func (rt *HomeRuntime) runBatch(batch []op, replies *[]pendingReply) (err error) {
	i := 0
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The stack must be captured here, inside the recovering deferred
		// call, or the panic frames are gone; poison persists it.
		rt.panicStack = string(debug.Stack())
		err = fmt.Errorf("runtime: home %q poisoned by panic: %v", rt.cfg.ID, r)
		for ; i < len(batch); i++ {
			failOp(&batch[i], ErrPoisoned)
			batch[i] = op{}
		}
		for j := range *replies {
			(*replies)[j].rp.send(result{err: ErrPoisoned})
			(*replies)[j] = pendingReply{}
		}
		*replies = (*replies)[:0]
	}()
	for ; i < len(batch); i++ {
		if batch[i].kind == opSuspend {
			// Journal, publish and deliver everything applied so far
			// before parking: a parked loop must not hold earlier
			// callers' replies (or their durability, or their snapshot
			// visibility) hostage.
			rt.journalFlush()
			rt.publish(false)
			*replies = flushReplies(*replies)
		}
		if res, rp := rt.apply(&batch[i]); rp != nil {
			*replies = append(*replies, pendingReply{rp: rp, res: res})
		}
		batch[i] = op{} // release payloads (routines, closures) once applied
	}
	rt.compactHistory()
	// Group commit before the batch's replies: an acknowledged operation
	// is a durable operation. The snapshot publish follows the journal
	// write, so readers never observe state that a crash could lose.
	rt.journalFlush()
	rt.publish(false)
	rt.maybeCheckpoint()
	rt.publishNextDue()
	*replies = flushReplies(*replies)
	return nil
}

// drainCrashed is the SIGKILL-equivalent loop exit: the first queued op (and
// everything behind it) is answered with ErrClosed without being applied, so
// no caller was acknowledged and none hangs. Nothing is drained, journaled
// or checkpointed — recovery sees exactly what the last group commit made
// durable.
func (rt *HomeRuntime) drainCrashed(first op) {
	o := first
	for {
		if o.reply != nil {
			o.reply.send(result{err: ErrClosed})
		}
		if o.kind == opSuspend {
			close(o.gate) // never parks: the caller's resume is a no-op
		}
		var ok bool
		o, ok = <-rt.ch
		if !ok {
			return
		}
	}
}

// flushReplies delivers the batch's deferred answers and returns the
// emptied (reusable) buffer.
func flushReplies(replies []pendingReply) []pendingReply {
	for i := range replies {
		replies[i].rp.send(replies[i].res)
		replies[i] = pendingReply{}
	}
	return replies[:0]
}

// shutdown runs on the loop goroutine after the ring has fully drained.
func (rt *HomeRuntime) shutdown() {
	rt.stopAllTriggers()
	if rt.simc != nil {
		// Finish every home's in-flight work (graceful drain): queued
		// routines run to completion at virtual speed.
		rt.simc.Run()
		rt.flushSimEvents()
	}
	// Group-commit whatever the final drain produced, then cut a final
	// checkpoint: a restart after a clean Close replays nothing.
	rt.journalFlush()
	// The final snapshot: post-Close reads observe the quiesced state.
	rt.publish(true)
	if rt.j != nil {
		if rt.freezing.Load() {
			rt.frozen = rt.frozenSummary()
		}
		rt.checkpointNow()
	}
	if rt.j != nil {
		_ = rt.j.jrn.Close()
		rt.j = nil
	}
}

// place hands a submission to the controller.
func (rt *HomeRuntime) place(o *op) routine.ID {
	if o.owned {
		return rt.ctrl.SubmitOwned(o.r)
	}
	return rt.ctrl.Submit(o.r)
}

// apply executes one operation on the loop goroutine. It returns the
// operation's answer and reply slot (nil for reply-less internal ops); the
// loop delivers answers only after publishing the batch's snapshot. Ops that
// can change observable state mark the snapshot dirty.
func (rt *HomeRuntime) apply(o *op) (result, *reply) {
	switch o.kind {
	case opSubmit:
		rt.snapDirty = true
		var rid routine.ID
		if m := rt.cfg.Metrics; m != nil {
			// The submit→placed stage: wall-clock cost of admission plus
			// scheduler placement, measured around the Submit call itself.
			t0 := time.Now()
			rid = rt.place(o)
			m.StagePlace.Observe(time.Since(t0).Seconds())
		} else {
			rid = rt.place(o)
		}
		rt.pumpVirtual()
		return result{rid: rid}, o.reply
	case opSubmitAfter:
		rt.snapDirty = true
		r := o.r
		rt.env.After(o.delay, func() { rt.ctrl.Submit(r) })
		rt.pumpVirtual()
		return result{}, o.reply
	case opFailDevice:
		rt.snapDirty = true
		return result{err: rt.injectFailure(o.dev, true)}, o.reply
	case opRestoreDevice:
		rt.snapDirty = true
		return result{err: rt.injectFailure(o.dev, false)}, o.reply
	case opScheduleTrig:
		handle, err := rt.scheduleTrigger(o.name, o.delay, o.every)
		return result{handle: handle, err: err}, o.reply
	case opCancelTrig:
		rt.cancelTrigger(o.handle)
		return result{}, o.reply
	case opStoreRoutine:
		err := rt.bank.Store(o.r)
		if err == nil && rt.j != nil {
			rt.noteBankPut(o.r)
		}
		return result{err: err}, o.reply
	case opTriggers:
		return result{trigs: rt.listTriggers()}, o.reply
	case opCompletion:
		rt.snapDirty = true
		o.done.CommandDone(o.err)
		return result{}, nil
	case opTimer:
		rt.snapDirty = true
		o.fn()
		return result{}, nil
	case opNotifyFailure:
		rt.snapDirty = true
		rt.ctrl.NotifyFailure(o.dev)
		return result{}, nil
	case opNotifyRestart:
		rt.snapDirty = true
		rt.ctrl.NotifyRestart(o.dev)
		return result{}, nil
	case opPump:
		rt.snapDirty = true
		rt.simc.RunUntil(o.now)
		rt.flushSimEvents()
		rt.pumpQueued.Store(false)
		return result{}, nil
	case opSuspend:
		close(o.gate)
		<-o.release
		return result{}, nil
	case opBarrier:
		return result{}, o.reply
	case opStopTriggers:
		rt.stopAllTriggers()
		return result{}, o.reply
	case opCompactNow:
		// The freeze path's history bound: fold every fully released
		// lock-access entry into the committed states regardless of the
		// HistoryHorizon cadence, so the final checkpoint (and the frozen
		// record behind it) never carries stale lineage.
		if rt.compacter != nil {
			now := rt.env.Now()
			rt.lastCompact = now
			if rt.compacter.CompactBefore(now) > 0 {
				rt.snapDirty = true
			}
		}
		return result{}, o.reply
	default:
		panic(fmt.Sprintf("runtime: unknown op kind %d", o.kind))
	}
}

// injectFailure runs a fail-stop failure (or the matching restart) of a
// simulated device through the fleet and the controller.
func (rt *HomeRuntime) injectFailure(dev device.ID, fail bool) error {
	if rt.fleet == nil {
		return fmt.Errorf("runtime: home %q has no simulated fleet to inject failures into", rt.cfg.ID)
	}
	if fail {
		if err := rt.fleet.Fail(dev); err != nil {
			return err
		}
		rt.ctrl.NotifyFailure(dev)
	} else {
		if err := rt.fleet.Restore(dev); err != nil {
			return err
		}
		rt.ctrl.NotifyRestart(dev)
	}
	rt.pumpVirtual()
	return nil
}

// pumpVirtual drains the simulator after a mutating operation under the
// virtual clock, so the operation's routines run to completion before the
// reply is delivered. Paced and wall clocks advance elsewhere.
func (rt *HomeRuntime) pumpVirtual() {
	if rt.cfg.Clock != ClockVirtual {
		return
	}
	rt.simc.Run()
	rt.flushSimEvents()
}

// flushSimEvents folds newly processed simulator events into the owner's
// counter.
func (rt *HomeRuntime) flushSimEvents() {
	if rt.cfg.OnSimEvents == nil || rt.simc == nil {
		return
	}
	if p := rt.simc.Processed(); p > rt.simDrained {
		rt.cfg.OnSimEvents(p - rt.simDrained)
		rt.simDrained = p
	}
}

// historyCompacter is implemented by controllers (EV) that can fold released
// lock-access history older than a horizon into their committed states.
type historyCompacter interface {
	CompactBefore(t time.Time) int
}

// compactHistory runs on the loop goroutine once per HistoryHorizon of home
// time: it folds lock-access history older than the horizon into the
// committed states, so a long-lived home's per-device gap scans are bounded
// by the live window instead of growing with history.
func (rt *HomeRuntime) compactHistory() {
	if rt.cfg.HistoryHorizon <= 0 || rt.compacter == nil {
		return
	}
	now := rt.env.Now()
	if !rt.lastCompact.IsZero() && now.Sub(rt.lastCompact) < rt.cfg.HistoryHorizon {
		return
	}
	rt.lastCompact = now
	if rt.compacter.CompactBefore(now.Add(-rt.cfg.HistoryHorizon)) > 0 {
		rt.snapDirty = true
	}
}

// publishNextDue exposes the earliest pending simulator deadline to the
// paced-clock pumper.
func (rt *HomeRuntime) publishNextDue() {
	if rt.simc == nil || rt.cfg.Clock != ClockPaced {
		return
	}
	if at, ok := rt.simc.NextEventAt(); ok {
		rt.nextDue.Store(at.UnixNano())
	} else {
		rt.nextDue.Store(0)
	}
}

// PumpIfDue posts a clock pump if the home has simulator work due at or
// before now, bounding in-flight pumps to one. It reports whether a pump was
// enqueued; homes with nothing due are skipped entirely.
func (rt *HomeRuntime) PumpIfDue(now time.Time) bool {
	due := rt.nextDue.Load()
	if due == 0 || due > now.UnixNano() {
		return false
	}
	if !rt.pumpQueued.CompareAndSwap(false, true) {
		return false
	}
	if !rt.postPump(op{kind: opPump, now: now}) {
		rt.pumpQueued.Store(false)
		return false
	}
	return true
}

// --- live.Poster ----------------------------------------------------------------

// PostCompletion implements live.Poster: an actuator command's completion is
// delivered to the controller through the mailbox. Completions arriving
// after Close are dropped (the home is quiescing).
func (rt *HomeRuntime) PostCompletion(done live.Completion, err error) {
	_ = rt.post(op{kind: opCompletion, done: done, err: err})
}

// PostTimer implements live.Poster: a wall-clock timer callback is delivered
// to the controller through the mailbox.
func (rt *HomeRuntime) PostTimer(fn func()) {
	_ = rt.post(op{kind: opTimer, fn: fn})
}

// --- mutations ------------------------------------------------------------------

// Submit validates the routine against the home's registry and submits it.
// Under ClockVirtual the routine has finished by the time Submit returns.
// Returns ErrOverloaded when the mailbox is full. Validation happens before
// admission — the registry is immutable after construction — so an invalid
// routine gets its validation error (HTTP 400) even under overload, and
// never consumes a mailbox slot. The routine is cloned; the caller's copy is
// never mutated.
func (rt *HomeRuntime) Submit(r *routine.Routine) (routine.ID, error) {
	return rt.submit(r, false)
}

// SubmitOwned is Submit for a routine the caller hands over
// (visibility.Controller.SubmitOwned): the controller keeps r itself and
// stamps it in place. Ownership passes only when the loop applies the
// submission: a submit refused at admission (ErrOverloaded, ErrClosed) or
// answered ErrClosed by a crashed loop leaves r untouched, so the caller may
// submit it again — which is what Manager.mutate's retry does.
func (rt *HomeRuntime) SubmitOwned(r *routine.Routine) (routine.ID, error) {
	return rt.submit(r, true)
}

func (rt *HomeRuntime) submit(r *routine.Routine, owned bool) (routine.ID, error) {
	if err := r.Validate(rt.reg); err != nil {
		return routine.None, err
	}
	rp := newReply()
	if err := rt.tryPost(op{kind: opSubmit, r: r, owned: owned, reply: rp}); err != nil {
		rp.discard()
		return routine.None, err
	}
	res := rp.await()
	if res.err != nil {
		return routine.None, res.err
	}
	return res.rid, nil
}

// SubmitAfter schedules a routine submission after the given delay on the
// home's clock. Like Submit, it validates before admission.
func (rt *HomeRuntime) SubmitAfter(d time.Duration, r *routine.Routine) error {
	if err := r.Validate(rt.reg); err != nil {
		return err
	}
	rp := newReply()
	if err := rt.tryPost(op{kind: opSubmitAfter, r: r, delay: d, reply: rp}); err != nil {
		rp.discard()
		return err
	}
	return rp.await().err
}

// FailDevice injects a fail-stop failure of a simulated device.
func (rt *HomeRuntime) FailDevice(dev device.ID) error {
	rp := newReply()
	if err := rt.tryPost(op{kind: opFailDevice, dev: dev, reply: rp}); err != nil {
		rp.discard()
		return err
	}
	return rp.await().err
}

// RestoreDevice injects a restart of a previously failed simulated device.
func (rt *HomeRuntime) RestoreDevice(dev device.ID) error {
	rp := newReply()
	if err := rt.tryPost(op{kind: opRestoreDevice, dev: dev, reply: rp}); err != nil {
		rp.discard()
		return err
	}
	return rp.await().err
}

// StoreRoutine validates the routine against the home's registry and saves it
// in the bank through the mailbox, so a journaled home persists the
// definition and a recovered home still knows it. Direct Bank().Store calls
// remain possible but are memory-only.
func (rt *HomeRuntime) StoreRoutine(r *routine.Routine) error {
	if err := r.Validate(rt.reg); err != nil {
		return err
	}
	rp := newReply()
	if err := rt.tryPost(op{kind: opStoreRoutine, r: r, reply: rp}); err != nil {
		rp.discard()
		return err
	}
	return rp.await().err
}

// --- queries --------------------------------------------------------------------
//
// Every query below answers from the latest published snapshot (see
// snapshot.go): lock-free, never touching the mailbox, and already covering
// every operation acknowledged to any caller.

// Counts is the runtime's live summary.
type Counts struct {
	Model     string
	Scheduler string
	Routines  int
	Pending   int
	Active    int
	Now       time.Time
}

// Results returns per-routine outcomes in submission order.
func (rt *HomeRuntime) Results() []visibility.Result { return rt.Snapshot().Results() }

// Result returns one routine's outcome.
func (rt *HomeRuntime) Result(id routine.ID) (visibility.Result, bool) {
	return rt.Snapshot().Result(id)
}

// ResultRef is Result by pointer into the snapshot's immutable storage: the
// caller must not write through it.
func (rt *HomeRuntime) ResultRef(id routine.ID) (*visibility.Result, bool) {
	return rt.Snapshot().ResultRef(id)
}

// Counts returns the runtime's live summary.
func (rt *HomeRuntime) Counts() Counts { return rt.Snapshot().Counts() }

// PendingCount returns the number of unfinished routines.
func (rt *HomeRuntime) PendingCount() int { return rt.Counts().Pending }

// DeviceStates returns the ground-truth state of every simulated device
// (nil for wall-clock runtimes, whose ground truth lives in the devices).
func (rt *HomeRuntime) DeviceStates() map[device.ID]device.State {
	return rt.Snapshot().DeviceStates()
}

// CommittedStates returns the controller's committed-state view.
func (rt *HomeRuntime) CommittedStates() map[device.ID]device.State {
	return rt.Snapshot().CommittedStates()
}

// Events returns a copy of the recent activity log.
func (rt *HomeRuntime) Events() []visibility.Event {
	ev, _ := rt.EventsSince(0)
	return ev
}

// EventsSince returns the retained events with sequence number >= since —
// the tail a poller has not seen yet — and the cursor to pass on the next
// call. The first event ever gets sequence 1; passing 0 returns everything
// retained.
func (rt *HomeRuntime) EventsSince(since uint64) ([]visibility.Event, uint64) {
	return rt.Snapshot().EventsSince(since)
}

// RangeEventsSince is EventsSince without materializing the page: fn is called
// in sequence order with each retained event >= since, in place on the
// immutable event chunks (fn must not write through the pointer or keep it),
// and the next cursor is returned.
func (rt *HomeRuntime) RangeEventsSince(since uint64, fn func(seq uint64, e *visibility.Event)) uint64 {
	return rt.Snapshot().RangeEventsSince(since, fn)
}

// --- accessors ------------------------------------------------------------------

// ID returns the home's identifier.
func (rt *HomeRuntime) ID() string { return rt.cfg.ID }

// Model returns the home's visibility model.
func (rt *HomeRuntime) Model() visibility.Model { return rt.cfg.Model }

// Registry returns the device registry.
func (rt *HomeRuntime) Registry() *device.Registry { return rt.reg }

// Bank returns the home's routine bank (safe for concurrent use).
func (rt *HomeRuntime) Bank() *routine.Bank { return rt.bank }

// Detector exposes the failure detector (wall-clock runtimes; nil otherwise).
func (rt *HomeRuntime) Detector() *failure.Detector { return rt.detector }

// Breakers reports the live environment's per-device circuit-breaker states
// (wall-clock runtimes; nil otherwise).
func (rt *HomeRuntime) Breakers() []live.BreakerStats {
	if rt.lenv == nil {
		return nil
	}
	return rt.lenv.Breakers()
}

// BreakerState reports one device's actuation breaker position (always
// closed for simulated homes, which have no live environment).
func (rt *HomeRuntime) BreakerState(id device.ID) live.BreakerState {
	if rt.lenv == nil {
		return live.BreakerClosed
	}
	return rt.lenv.BreakerState(id)
}

// Since returns the runtime's creation time.
func (rt *HomeRuntime) Since() time.Time { return rt.started }

// IdleSince returns the wall time of the last admitted mutating operation
// (construction time if none): the idle clock the hibernation freezer
// compares against Config.HibernateAfter. Queries never advance it.
func (rt *HomeRuntime) IdleSince() time.Time {
	return time.Unix(0, rt.lastActive.Load())
}

// NextDueAt returns the earliest pending simulator deadline the loop has
// published (zero time = nothing pending). The freezer uses it to skip homes
// with imminent work; the paced-clock pumper uses the same value through
// PumpIfDue.
func (rt *HomeRuntime) NextDueAt() time.Time {
	due := rt.nextDue.Load()
	if due == 0 {
		return time.Time{}
	}
	return time.Unix(0, due)
}

// Mailbox reports the mailbox's admission counters and occupancy.
func (rt *HomeRuntime) Mailbox() MailboxStats {
	return MailboxStats{
		Accepted: rt.accepted.Load(),
		Rejected: rt.rejected.Load(),
		Depth:    len(rt.ch),
		Capacity: cap(rt.ch),
	}
}

// Suspend blocks the loop goroutine until the returned resume function is
// called, returning once the loop is actually parked. A parked loop is the
// only deterministic way to observe a full mailbox, which is what the
// overload/backpressure tests need; it also serves as a quiesce point for
// maintenance (e.g. state snapshots).
func (rt *HomeRuntime) Suspend() (resume func(), err error) {
	gate := make(chan struct{})
	release := make(chan struct{})
	if err := rt.post(op{kind: opSuspend, gate: gate, release: release}); err != nil {
		return nil, err
	}
	<-gate
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }, nil
}
