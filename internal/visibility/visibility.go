// Package visibility implements SafeHome's concurrency controllers — one per
// visibility model of §2.1/§3 of the paper — together with the scheduling
// policies for Eventual Visibility (§5).
//
// The models are:
//
//   - WV  (Weak Visibility): today's status quo; routines run immediately and
//     best-effort, with no isolation, atomicity or failure handling.
//   - GSV (Global Strict Visibility): at most one routine executes at a time;
//     a failure/restart of a touched device during execution aborts it.
//   - S-GSV (Strong GSV): like GSV but any device failure aborts the
//     currently executing routine.
//   - PSV (Partitioned Strict Visibility): non-conflicting routines run
//     concurrently; conflicting routines serialize; failures are evaluated at
//     the routine's finish point (rule 3* of §3).
//   - EV  (Eventual Visibility): the paper's main contribution — virtual
//     locks with a lineage table, pre-/post-leasing, commit compaction, and a
//     pluggable scheduler (FCFS, Just-in-Time, or Timeline).
//
// Controllers are single-threaded state machines: all entry points (Submit,
// NotifyFailure, NotifyRestart and the callbacks delivered by the Env) must
// be invoked from one goroutine or otherwise serialized. The discrete-event
// SimEnv serializes naturally; the hub and the multi-tenant manager both
// serialize through the home runtime (internal/runtime), whose loop
// goroutine applies every operation — including live-environment callbacks —
// from a typed mailbox.
//
// See ARCHITECTURE.md at the repository root for how the controllers sit
// between the hub/manager layer and the lineage/sim/device machinery.
package visibility

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// Model selects a visibility model.
type Model int

const (
	// WV is Weak Visibility, today's best-effort status quo.
	WV Model = iota
	// GSV is (loose) Global Strict Visibility.
	GSV
	// SGSV is Strong Global Strict Visibility.
	SGSV
	// PSV is Partitioned Strict Visibility.
	PSV
	// EV is Eventual Visibility.
	EV
)

// Models lists every supported model, in increasing order of permissiveness.
var Models = []Model{GSV, SGSV, PSV, EV, WV}

func (m Model) String() string {
	switch m {
	case WV:
		return "WV"
	case GSV:
		return "GSV"
	case SGSV:
		return "S-GSV"
	case PSV:
		return "PSV"
	case EV:
		return "EV"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ParseModel parses a model name ("EV", "s-gsv", ...).
func ParseModel(s string) (Model, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "WV", "WEAK":
		return WV, nil
	case "GSV":
		return GSV, nil
	case "SGSV", "S-GSV", "STRONG-GSV":
		return SGSV, nil
	case "PSV":
		return PSV, nil
	case "EV", "EVENTUAL":
		return EV, nil
	default:
		return WV, fmt.Errorf("visibility: unknown model %q", s)
	}
}

// SchedulerKind selects the Eventual Visibility scheduling policy (§5).
type SchedulerKind int

const (
	// SchedTL is Timeline scheduling (gap placement via Algorithm 1).
	SchedTL SchedulerKind = iota
	// SchedFCFS is First-Come-First-Serve scheduling.
	SchedFCFS
	// SchedJiT is Just-in-Time scheduling.
	SchedJiT
)

func (k SchedulerKind) String() string {
	switch k {
	case SchedFCFS:
		return "FCFS"
	case SchedJiT:
		return "JiT"
	case SchedTL:
		return "TL"
	default:
		return fmt.Sprintf("sched(%d)", int(k))
	}
}

// ParseScheduler parses a scheduler name.
func ParseScheduler(s string) (SchedulerKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "FCFS":
		return SchedFCFS, nil
	case "JIT", "JUST-IN-TIME":
		return SchedJiT, nil
	case "TL", "TIMELINE":
		return SchedTL, nil
	default:
		return SchedTL, fmt.Errorf("visibility: unknown scheduler %q", s)
	}
}

// RoutineStatus is a routine's lifecycle state as seen by the controller.
type RoutineStatus int

const (
	// StatusWaiting means the routine has been submitted but not started.
	StatusWaiting RoutineStatus = iota
	// StatusRunning means the routine has started executing commands.
	StatusRunning
	// StatusCommitted means the routine completed successfully.
	StatusCommitted
	// StatusAborted means the routine was aborted and its effects rolled back.
	StatusAborted
)

func (s RoutineStatus) String() string {
	switch s {
	case StatusWaiting:
		return "waiting"
	case StatusRunning:
		return "running"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Finished reports whether the status is terminal.
func (s RoutineStatus) Finished() bool { return s == StatusCommitted || s == StatusAborted }

// Result is the per-routine outcome record a controller maintains.
type Result struct {
	ID      routine.ID
	Routine *routine.Routine
	Status  RoutineStatus

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// Executed counts commands that had an effect on the home.
	Executed int
	// Skipped counts commands skipped because their condition did not hold.
	Skipped int
	// BestEffortFailures counts best-effort commands that failed but did not
	// abort the routine.
	BestEffortFailures int
	// RolledBack counts executed commands whose effect was undone because the
	// routine aborted.
	RolledBack int
	// AbortReason describes why the routine aborted (empty otherwise).
	AbortReason string
}

// Latency is the end-to-end latency (submission to finish). It is only
// meaningful for committed routines.
func (r Result) Latency() time.Duration {
	if r.Finished.IsZero() || r.Submitted.IsZero() {
		return 0
	}
	return r.Finished.Sub(r.Submitted)
}

// RunTime is the time between actual start and finish (the numerator of the
// stretch-factor metric of Fig 15c).
func (r Result) RunTime() time.Duration {
	if r.Finished.IsZero() || r.Started.IsZero() {
		return 0
	}
	return r.Finished.Sub(r.Started)
}

// EventKind identifies an observable controller event.
type EventKind int

const (
	// EvSubmitted fires when a routine is submitted.
	EvSubmitted EventKind = iota
	// EvStarted fires when a routine begins executing.
	EvStarted
	// EvCommandExecuted fires when a command has successfully driven a device.
	EvCommandExecuted
	// EvCommandFailed fires when a command failed (device down).
	EvCommandFailed
	// EvCommandSkipped fires when a command was skipped (condition not met).
	EvCommandSkipped
	// EvCommitted fires when a routine completes successfully.
	EvCommitted
	// EvAborted fires when a routine aborts.
	EvAborted
	// EvRolledBack fires for every device restored during an abort rollback.
	EvRolledBack
	// EvFailureDetected fires when the controller learns of a device failure.
	EvFailureDetected
	// EvRestartDetected fires when the controller learns of a device restart.
	EvRestartDetected
)

func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvStarted:
		return "started"
	case EvCommandExecuted:
		return "command-executed"
	case EvCommandFailed:
		return "command-failed"
	case EvCommandSkipped:
		return "command-skipped"
	case EvCommitted:
		return "committed"
	case EvAborted:
		return "aborted"
	case EvRolledBack:
		return "rolled-back"
	case EvFailureDetected:
		return "failure-detected"
	case EvRestartDetected:
		return "restart-detected"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one observable controller event, consumed by the metrics recorder
// and by the hub's activity log.
type Event struct {
	Time    time.Time
	Kind    EventKind
	Routine routine.ID
	Device  device.ID
	State   device.State
	Detail  string
}

// Observer receives controller events. A nil observer is allowed.
type Observer func(Event)

// Options configures a controller.
type Options struct {
	// Model selects the visibility model.
	Model Model
	// Scheduler selects the EV scheduling policy (EV only).
	Scheduler SchedulerKind
	// PreLease / PostLease enable lock leasing (EV only; both default on).
	PreLease  bool
	PostLease bool
	// DefaultShort is the assumed exclusive-hold duration of a command with
	// no explicit duration (the paper's τ_timeout, 100 ms).
	DefaultShort time.Duration
	// LeaseLeniency multiplies lease-revocation timeouts (paper: 1.1).
	LeaseLeniency float64
	// JiTTTL is the per-routine time-to-live after which a waiting routine is
	// prioritized by the JiT scheduler to avoid starvation.
	JiTTTL time.Duration
	// CheckInvariants makes the EV controller verify the lineage-table
	// invariants after every mutation (used by tests; expensive).
	CheckInvariants bool
	// Observer receives controller events (may be nil).
	Observer Observer
	// StateSink, if set, receives every committed-state change (after it is
	// folded into the controller's committed view). The home runtime uses it
	// to journal committed states for crash recovery; like the Observer it
	// runs on the controller's owning goroutine. Initial states passed to New
	// are not reported — they are re-derivable from the device registry.
	StateSink func(device.ID, device.State)
}

// Defaults mirror the paper's implementation constants (§4.3, §6).
const (
	DefaultShortCommand = 100 * time.Millisecond
	DefaultLeniency     = 1.1
	DefaultJiTTTL       = 30 * time.Second
)

// DefaultOptions returns the options used throughout the paper's evaluation
// for the given model: Timeline scheduling with both leases enabled.
func DefaultOptions(m Model) Options {
	return Options{
		Model:         m,
		Scheduler:     SchedTL,
		PreLease:      true,
		PostLease:     true,
		DefaultShort:  DefaultShortCommand,
		LeaseLeniency: DefaultLeniency,
		JiTTTL:        DefaultJiTTTL,
	}
}

func (o Options) normalized() Options {
	if o.DefaultShort <= 0 {
		o.DefaultShort = DefaultShortCommand
	}
	if o.LeaseLeniency <= 0 {
		o.LeaseLeniency = DefaultLeniency
	}
	if o.JiTTTL <= 0 {
		o.JiTTTL = DefaultJiTTTL
	}
	return o
}

// hold returns the effective exclusive-hold duration of a command.
func (o Options) hold(c routine.Command) time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	return o.DefaultShort
}

// Controller is the interface every visibility-model implementation
// satisfies. Controllers are not safe for concurrent use; see the package
// comment.
type Controller interface {
	// Model returns the controller's visibility model.
	Model() Model
	// Submit registers a routine for execution and returns its assigned ID.
	// The routine is cloned; the caller's copy is never mutated.
	Submit(r *routine.Routine) routine.ID
	// SubmitOwned is Submit for a routine the caller hands over: nobody else
	// holds it (ParseSpec just built it, the routine bank just copied it),
	// so the controller keeps it instead of a clone and stamps it in place
	// (ID, submission time, cached device set). The caller must not touch
	// the routine afterwards; Result(id).Routine is that same routine.
	SubmitOwned(r *routine.Routine) routine.ID
	// NotifyFailure informs the controller that a device failure was detected.
	NotifyFailure(d device.ID)
	// NotifyRestart informs the controller that a device restart was detected.
	NotifyRestart(d device.ID)
	// Results returns per-routine outcomes in submission order.
	Results() []Result
	// RoutineCount returns the number of routines ever submitted (cheaper
	// than len(Results()) — no per-result copying).
	RoutineCount() int
	// Result returns the outcome of one routine.
	Result(id routine.ID) (Result, bool)
	// Serialization returns the serially-equivalent order of committed
	// routines, failure events and restart events established so far.
	Serialization() []order.Node
	// ActiveCount returns the number of routines currently executing.
	ActiveCount() int
	// PendingCount returns the number of submitted routines not yet finished.
	PendingCount() int
	// CommittedStates returns the controller's view of the last committed
	// state of every device it has touched.
	CommittedStates() map[device.ID]device.State
	// ExportInto writes an immutable, internally consistent snapshot of the
	// controller's observable state (results, counts, committed states) into
	// out, built incrementally from the previous export. out must be fresh
	// storage that the caller publishes and never rewrites: the next export
	// builds on it. It must be called from the goroutine that owns the
	// controller; the export may be read from any goroutine once published.
	// See export.go.
	ExportInto(out *StateExport)
	// Preload seeds the controller with an already-finished routine history
	// recovered from durable storage: results keep their original IDs (which
	// must be dense, ascending and start at 1), statuses and counters, and
	// new submissions continue the ID sequence after them. Every preloaded
	// result must be terminal; recovery converts in-flight routines to
	// Aborted before preloading. Preload must be called before any Submit.
	// Like SubmitOwned it takes the results' routines over: it stamps them
	// in place, and the caller must not touch them afterwards.
	Preload(results []Result)
}

// New builds a controller for the options' model. initial seeds the
// controller's committed-state view of the home (typically the device
// fleet's snapshot at time zero).
func New(env Env, initial map[device.ID]device.State, opts Options) Controller {
	opts = opts.normalized()
	switch opts.Model {
	case WV:
		return newWV(env, initial, opts)
	case GSV:
		return newGSV(env, initial, opts, false)
	case SGSV:
		return newGSV(env, initial, opts, true)
	case PSV:
		return newPSV(env, initial, opts)
	case EV:
		return newEV(env, initial, opts)
	default:
		panic(fmt.Sprintf("visibility: unknown model %v", opts.Model))
	}
}

// --- shared controller plumbing -------------------------------------------

// cmdRecord remembers an executed command for rollback accounting.
type cmdRecord struct {
	idx    int
	dev    device.ID
	target device.State
	prior  device.State
}

// base carries the bookkeeping shared by all controllers.
type base struct {
	env  Env
	opts Options
	// nextID is the last routine ID assigned. IDs are dense from 1 (assign
	// and Preload see to it), so it also counts the routines submitted or
	// preloaded, and they are 1 … nextID.
	nextID routine.ID

	results  map[routine.ID]*Result
	finished int // results with a terminal status (PendingCount is O(1))

	committed map[device.ID]device.State
	failed    map[device.ID]bool
	failSeq   map[device.ID]int
	restSeq   map[device.ID]int

	serial []order.Node
	active int

	// export carries the dirty tracking and shared spines behind Export
	// (the off-loop read path; see export.go).
	export *exportState
}

func newBase(env Env, initial map[device.ID]device.State, opts Options) base {
	committed := make(map[device.ID]device.State, len(initial))
	export := newExportState()
	ids := make([]device.ID, 0, len(initial))
	for d := range initial {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, d := range ids {
		committed[d] = initial[d]
		export.noteCommittedState(d)
	}
	return base{
		env:       env,
		opts:      opts,
		results:   make(map[routine.ID]*Result),
		committed: committed,
		failed:    make(map[device.ID]bool),
		failSeq:   make(map[device.ID]int),
		restSeq:   make(map[device.ID]int),
		export:    export,
	}
}

// setCommitted folds one device's committed state and marks it dirty for the
// next Export. Every committed-state write must go through here. A write
// that changes nothing (routines re-asserting a state, the common case under
// steady load) marks nothing, so Export shares the previous states.
func (b *base) setCommitted(d device.ID, s device.State) {
	if cur, exists := b.committed[d]; exists && cur == s {
		if _, interned := b.export.slots[d]; interned {
			return
		}
	}
	b.committed[d] = s
	b.export.noteCommittedState(d)
	if b.opts.StateSink != nil {
		b.opts.StateSink(d, s)
	}
}

// assign registers a newly submitted routine, writing its Result record
// into res (storage the caller supplies: the run record holds it) and
// returning the routine the controller keeps. An owned routine is stamped
// in place with its ID and submission time; any other is cloned first, so
// the caller's copy is never mutated.
func (b *base) assign(r *routine.Routine, owned bool, res *Result) *routine.Routine {
	if !owned {
		r = r.Clone()
	}
	b.nextID++
	r.Stamp(b.nextID, b.env.Now())
	*res = Result{
		ID:        r.ID,
		Routine:   r,
		Status:    StatusWaiting,
		Submitted: r.Submitted,
	}
	b.results[r.ID] = res
	b.export.noteOpen(r.ID)
	b.emit(Event{Time: r.Submitted, Kind: EvSubmitted, Routine: r.ID, Detail: r.Name})
	return r
}

func (b *base) emit(e Event) {
	if b.opts.Observer != nil {
		b.opts.Observer(e)
	}
}

func (b *base) markStarted(res *Result) {
	res.Status = StatusRunning
	res.Started = b.env.Now()
	b.active++
	b.emit(Event{Time: res.Started, Kind: EvStarted, Routine: res.ID})
}

func (b *base) markCommitted(res *Result) {
	res.Status = StatusCommitted
	res.Finished = b.env.Now()
	b.active--
	b.finished++
	b.export.noteFinished(res.ID)
	b.emit(Event{Time: res.Finished, Kind: EvCommitted, Routine: res.ID})
}

func (b *base) markAborted(res *Result, reason string) {
	res.Status = StatusAborted
	res.Finished = b.env.Now()
	res.AbortReason = reason
	if res.Started.IsZero() {
		res.Started = res.Finished
	} else {
		b.active--
	}
	b.finished++
	b.export.noteFinished(res.ID)
	b.emit(Event{Time: res.Finished, Kind: EvAborted, Routine: res.ID, Detail: reason})
}

// applyCommit folds a committed routine's final writes into the controller's
// committed-state view.
func (b *base) applyCommit(r *routine.Routine) {
	for _, d := range r.Devices() {
		if st, ok := r.LastWriteTo(d); ok {
			b.setCommitted(d, st)
		}
	}
}

// failureDetected records a failure event and returns its serialization node.
func (b *base) failureDetected(d device.ID) order.Node {
	n := order.FailureNode(d, b.failSeq[d])
	b.failSeq[d]++
	b.failed[d] = true
	b.serial = append(b.serial, n)
	b.emit(Event{Time: b.env.Now(), Kind: EvFailureDetected, Device: d})
	return n
}

// restartDetected records a restart event and returns its serialization node.
func (b *base) restartDetected(d device.ID) order.Node {
	n := order.RestartNode(d, b.restSeq[d])
	b.restSeq[d]++
	b.failed[d] = false
	b.serial = append(b.serial, n)
	b.emit(Event{Time: b.env.Now(), Kind: EvRestartDetected, Device: d})
	return n
}

// Results reads live records for open (or not-yet-exported) routines and the
// write-once export slots for everything else — a finished, exported outcome
// is stored exactly once (see export.go).
func (b *base) Results() []Result {
	out := make([]Result, 0, b.nextID)
	for id := routine.ID(1); id <= b.nextID; id++ {
		if res, ok := b.results[id]; ok {
			out = append(out, *res)
		} else {
			out = append(out, *b.export.slot(id))
		}
	}
	return out
}

func (b *base) Result(id routine.ID) (Result, bool) {
	if res, ok := b.results[id]; ok {
		return *res, true
	}
	if id < 1 || id > b.nextID {
		return Result{}, false
	}
	return *b.export.slot(id), true
}

// Preload implements Controller.Preload for every model: recovered routines
// are terminal, so they never interact with scheduling state — they only
// seed the result history (write-once export slots included) and the ID
// sequence. Recovery builds every routine fresh for this call and keeps
// none, so Preload takes them over as they are: each is stamped with its ID
// in place, not cloned.
func (b *base) Preload(results []Result) {
	for i := range results {
		res := results[i]
		if !res.Status.Finished() {
			panic(fmt.Sprintf("visibility: Preload of unfinished routine %d (%s)", res.ID, res.Status))
		}
		if int64(res.ID) != int64(b.nextID)+1 {
			panic(fmt.Sprintf("visibility: Preload out of order: routine %d after %d", res.ID, b.nextID))
		}
		if res.Routine != nil {
			res.Routine.ID = res.ID
		}
		b.nextID = res.ID
		rec := res
		b.results[res.ID] = &rec
		b.finished++
		b.export.noteOpen(res.ID)
		b.export.noteFinished(res.ID)
	}
}

func (b *base) RoutineCount() int { return int(b.nextID) }

func (b *base) ActiveCount() int { return b.active }

func (b *base) PendingCount() int { return int(b.nextID) - b.finished }

func (b *base) CommittedStates() map[device.ID]device.State {
	out := make(map[device.ID]device.State, len(b.committed))
	for d, s := range b.committed {
		out[d] = s
	}
	return out
}

func (b *base) Serialization() []order.Node {
	return append([]order.Node(nil), b.serial...)
}

// conditionMet evaluates a command's optional condition against the
// controller's best current knowledge of the home (committed states), falling
// back to querying the environment. It is used by the non-EV controllers; EV
// uses the lineage table's current-state inference instead.
func (b *base) conditionMet(c routine.Command) bool {
	if c.Condition == nil {
		return true
	}
	if st, err := b.env.DeviceState(c.Condition.Device); err == nil {
		return st == c.Condition.Equals
	}
	return b.committed[c.Condition.Device] == c.Condition.Equals
}
