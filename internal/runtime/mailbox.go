package runtime

import (
	"errors"
	"sync"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// Errors surfaced by the mailbox admission path.
var (
	// ErrOverloaded is returned when a mutating operation is rejected because
	// the home's mailbox is full. The caller should back off and retry; the
	// HTTP layers translate it to 429 Too Many Requests.
	ErrOverloaded = errors.New("runtime: home mailbox full")
	// ErrClosed is returned by mutating operations after Close.
	ErrClosed = errors.New("runtime: closed")
	// ErrPoisoned is returned to callers whose operations were queued or in
	// flight when a panic killed the home's loop. The home is torn down
	// crash-style (nothing in the poisoned batch was acknowledged); an owner
	// with a supervisor restarts it from its journal.
	ErrPoisoned = errors.New("runtime: home poisoned by panic")
)

// opKind tags one mailbox operation. Every entry point into a home — user
// submissions, failure injections, live command completions, timer callbacks,
// clock pumps, trigger firings — is one of these tagged structs, so the
// runtime goroutine is the only code that ever touches the controller. The
// mailbox deliberately carries op values, not func() closures: the hot path
// (Submit) moves a flat struct through a bounded ring with zero allocations.
type opKind uint8

const (
	opInvalid opKind = iota

	// External mutations: admission-controlled (TryPost, ErrOverloaded).
	opSubmit        // r, reply        → rid, err
	opSubmitAfter   // r, delay, reply → err
	opFailDevice    // dev, reply      → err
	opRestoreDevice // dev, reply      → err
	opScheduleTrig  // name, delay, every, reply → handle, err
	opCancelTrig    // handle, reply   → err
	opStoreRoutine  // r, reply        → err (bank store, journaled)

	// The one loop-answered query (the trigger table is loop-owned), posted
	// blocking: the loop drains continuously, so the wait is bounded.
	opTriggers // reply → []ScheduledTrigger

	// Internal deliveries: posted blocking from dedicated goroutines (live
	// command completions, wall-clock timers — including trigger firings,
	// which ride opTimer through env.After — the failure detector, the shard
	// pumper, and shutdown). Never load-shed — dropping one would wedge the
	// controller's state machine.
	opCompletion    // done, err
	opTimer         // fn
	opNotifyFailure // dev
	opNotifyRestart // dev
	opPump          // now
	opSuspend       // gate, release
	opBarrier       // reply: answers once everything queued before it ran
	opStopTriggers  // reply: cancels every trigger, refuses new ones
	opCompactNow    // reply: folds all released lock-access history (freeze path)
)

// op is one tagged mailbox entry. The struct is moved by value through the
// ring; payload fields overlap across kinds (a tagged union).
type op struct {
	kind    opKind
	r       *routine.Routine
	delay   time.Duration
	every   time.Duration
	dev     device.ID
	name    string
	handle  TriggerHandle
	err     error
	done    func(error)
	fn      func()
	now     time.Time
	gate    chan struct{}
	release <-chan struct{}
	reply   *reply
}

// result is the uniform answer shape delivered through a reply slot.
type result struct {
	rid    routine.ID
	err    error
	handle TriggerHandle
	trigs  []ScheduledTrigger
}

// reply is a pooled single-use answer channel, so the submit hot path does
// not allocate a fresh channel per operation.
type reply struct {
	ch chan result
}

var replyPool = sync.Pool{New: func() any { return &reply{ch: make(chan result, 1)} }}

func newReply() *reply { return replyPool.Get().(*reply) }

func (r *reply) send(res result) { r.ch <- res }

// await blocks for the answer and recycles the slot.
func (r *reply) await() result {
	res := <-r.ch
	replyPool.Put(r)
	return res
}

// discard recycles a slot whose op was never admitted.
func (r *reply) discard() { replyPool.Put(r) }

// MailboxStats reports a home mailbox's admission counters and current
// occupancy.
type MailboxStats struct {
	// Accepted and Rejected count mutating operations admitted to /
	// load-shed from the mailbox since the runtime started.
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	// Depth is the current number of queued operations; Capacity is the ring
	// size (the Config.MailboxDepth knob).
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// tryPost admits a mutating operation, shedding load when the ring is full.
func (rt *HomeRuntime) tryPost(o op) error {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed {
		return ErrClosed
	}
	select {
	case rt.ch <- o:
		rt.accepted.Inc()
		// Any admitted mutation resets the idle clock the hibernation
		// freezer watches; queries deliberately do not (status polls must
		// not keep a home resident).
		rt.lastActive.Store(time.Now().UnixNano())
		return nil
	default:
		rt.rejected.Inc()
		return ErrOverloaded
	}
}

// post delivers an operation that must not be load-shed (the trigger listing
// and internal callbacks), blocking while the ring is full. The loop
// goroutine drains continuously, so the wait is bounded by queue depth;
// after Close it returns ErrClosed without delivering.
func (rt *HomeRuntime) post(o op) error {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed {
		return ErrClosed
	}
	rt.ch <- o
	return nil
}

// postPump enqueues a clock pump without blocking and without touching the
// admission counters; a shed pump is retried on the next tick.
func (rt *HomeRuntime) postPump(o op) bool {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed {
		return false
	}
	select {
	case rt.ch <- o:
		return true
	default:
		return false
	}
}
