// Eventual-Visibility scheduling policies (§5 of the paper): First Come
// First Serve, Just-in-Time, and Timeline scheduling.
//
// The schedulers sit on the controller's hot path — every submission runs a
// placement search and every lock release a wake-up scan — so they keep all
// search state in reusable scratch structures: epoch-stamped routine-ID sets
// for the preSet/postSet disjointness tests, pooled placement and gap
// buffers, and a mark-dequeue wait queue compacted in a single pass. In
// steady state a placement attempt performs no map or slice allocation.
package visibility

import (
	"fmt"
	"time"

	"safehome/internal/lineage"
	"safehome/internal/order"
	"safehome/internal/routine"
)

// --- scratch routine-ID sets -------------------------------------------------

// idSet is a reusable set of routine IDs. Routine IDs are dense (assigned
// sequentially per controller), so membership is an epoch-stamped slice
// indexed by ID: reset is O(1), and steady-state add/has/membership walks
// allocate nothing. The members are also kept in insertion order so the set
// can be iterated deterministically (maps would randomize edge-insertion
// order). The slice starts past base, the last ID the controller sealed
// (rebase): no ID at or below it is ever a member again.
type idSet struct {
	stamp []uint32
	epoch uint32
	base  routine.ID
	ids   []routine.ID
}

// reset empties the set in O(1) by advancing the epoch.
func (s *idSet) reset() {
	s.epoch++
	if s.epoch == 0 { // wrap: clear stamps so stale epochs cannot collide
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.ids = s.ids[:0]
}

// rebase empties the set and moves its slice past base, keeping the array.
func (s *idSet) rebase(base routine.ID) {
	s.reset()
	s.base = base
}

func (s *idSet) has(id routine.ID) bool {
	i := uint(id - s.base)
	return i < uint(len(s.stamp)) && s.stamp[i] == s.epoch
}

// add inserts id, reporting whether it was newly added.
func (s *idSet) add(id routine.ID) bool {
	i := int(id - s.base)
	if i >= len(s.stamp) {
		// append's geometric growth: IDs only ever rise, and growing by a
		// constant would copy the whole array every few submissions.
		s.stamp = append(s.stamp, make([]uint32, i+1-len(s.stamp))...)
	}
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	s.ids = append(s.ids, id)
	return true
}

// truncate undoes every add after the ids slice had length mark (the
// Timeline search's backtracking step).
func (s *idSet) truncate(mark int) {
	for _, id := range s.ids[mark:] {
		s.stamp[id-s.base] = 0
	}
	s.ids = s.ids[:mark]
}

// addEdgesSet adds pre→node and node→post edges, reporting whether every
// edge was consistent with the existing order. Duplicate edges are fine.
// Iteration follows set insertion order, which is deterministic; acceptance
// of the whole batch is order-independent (all edges are incident to node,
// so the batch fails iff the combined graph has a cycle, regardless of
// insertion order).
// foldedPre adds each touched device's folded baseline writer (the routine
// whose access commit compaction removed from the lineage) to the pre set:
// its write is the device's committed state, so any new placement must
// serialize after it even though the lineage no longer shows it. A sealed
// writer is skipped: the sealed prefix already orders it first.
func (c *evController) foldedPre(run *evRun, pre *idSet) {
	for i := range run.devs {
		if lf := run.devs[i].dev.lin.LastFolded(); lf != routine.None && lf != run.id && c.graph.Has(order.RoutineNode(lf)) {
			pre.add(lf)
		}
	}
}

func addEdgesSet(g *order.Graph, pre *idSet, node order.Node, post *idSet) bool {
	for _, id := range pre.ids {
		if g.AddEdge(order.RoutineNode(id), node) != nil {
			return false
		}
	}
	for _, id := range post.ids {
		if g.AddEdge(node, order.RoutineNode(id)) != nil {
			return false
		}
	}
	return true
}

// --- FCFS --------------------------------------------------------------------

// fcfsScheduler serializes routines in arrival order: lock-accesses are
// appended to every lineage at submission, pre-leases are never used (they
// would contradict arrival order), and a routine starts once every device it
// needs is acquirable. Post-leases (early release after a routine's last
// touch) still apply, performed by the controller.
type fcfsScheduler struct {
	c *evController
	// scanning/rescan guard tryStart against reentrancy: starting a routine
	// can synchronously complete it (condition-skipped commands), which
	// releases locks and re-triggers the scheduler mid-scan. The inner call
	// just flags a rescan; the outer pass restarts, matching the semantics of
	// the old restart-from-zero splice loop without its O(n²) splicing.
	scanning bool
	rescan   bool
}

func (s *fcfsScheduler) kind() SchedulerKind { return SchedFCFS }

func (s *fcfsScheduler) onSubmit(run *evRun) {
	s.c.placeAtEnd(run)
	s.c.enqueueWait(run)
	s.tryStart()
}

func (s *fcfsScheduler) onFree()             { s.tryStart() }
func (s *fcfsScheduler) onRoutineDone()      { s.tryStart() }
func (s *fcfsScheduler) rebase(_ routine.ID) {}

// tryStart begins every waiting routine whose devices are all acquirable.
// Because accesses were appended in arrival order, starting a later routine
// early never violates the serialization order — it simply exploits
// non-conflicting parallelism. Finished and dequeued entries are compacted
// out of the wait queue in the same single pass (no per-entry splicing).
func (s *fcfsScheduler) tryStart() {
	if s.scanning {
		s.rescan = true
		return
	}
	s.scanning = true
	defer func() { s.scanning = false }()
	for {
		s.rescan = false
		q := s.c.waitQ
		w := 0
		for r := 0; r < len(q); r++ {
			run := q[r]
			if !run.queued || run.done || run.running {
				run.queued = false
				continue // compact finished/dequeued entries out
			}
			ready := true
			for i := range run.devs {
				if !run.devs[i].dev.lin.CanAcquire(run.id) {
					ready = false
					break
				}
			}
			if !ready {
				q[w] = run
				w++
				continue
			}
			run.queued = false
			s.c.startRun(run)
			if s.rescan {
				// The start synchronously released locks; earlier entries may
				// have become ready. Keep the unexamined tail and restart.
				w += copy(q[w:], q[r+1:])
				break
			}
		}
		for i := w; i < len(q); i++ {
			q[i] = nil // drop references so finished runs can be collected
		}
		s.c.waitQ = q[:w]
		if !s.rescan {
			return
		}
	}
}

// --- Just-in-Time -------------------------------------------------------------

// jitScheduler greedily starts a routine at the earliest moment it can
// acquire all its locks — right away, or via pre-leases and post-leases. The
// eligibility test runs on every routine arrival and on every lock release.
// A per-routine TTL prevents starvation: once it expires, the routine is
// prioritized and other waiting routines are held back until it starts.
type jitScheduler struct {
	c        *evController
	scanning bool
	rescan   bool

	// Scratch for tryPlace: the accumulated preSet/postSet and the per-device
	// placement plan, reused across eligibility tests.
	pre   idSet
	post  idSet
	plans []jitPlacement
}

func (s *jitScheduler) kind() SchedulerKind { return SchedJiT }

func (s *jitScheduler) onSubmit(run *evRun) {
	if s.hasPrioritizedWaiter() {
		// A starved routine goes first; newcomers queue behind it.
		s.enqueue(run)
		return
	}
	if s.tryPlace(run) {
		s.c.startRun(run)
		return
	}
	s.enqueue(run)
}

func (s *jitScheduler) enqueue(run *evRun) {
	s.c.enqueueWait(run)
	run.ttl = s.c.env.After(s.c.opts.JiTTTL, run)
}

// Fire implements Timer: the run's JiT TTL ran out while it still waits, so
// it is prioritized. Only the JiT scheduler arms the TTL.
func (run *evRun) Fire() {
	if run.done || run.running {
		return
	}
	run.prioritized = true
	run.c.sched.(*jitScheduler).scan()
}

func (s *jitScheduler) onFree()        { s.scan() }
func (s *jitScheduler) onRoutineDone() { s.scan() }
func (s *jitScheduler) rebase(id routine.ID) {
	s.pre.rebase(id)
	s.post.rebase(id)
}

func (s *jitScheduler) hasPrioritizedWaiter() bool {
	for _, run := range s.c.waitQ {
		if run.queued && run.prioritized && !run.done && !run.running {
			return true
		}
	}
	return false
}

// scan retries the eligibility test on waiting routines: prioritized routines
// first (in arrival order), then the rest in arrival order. While any
// prioritized routine is still waiting, non-prioritized routines are held
// back so the starved routine gets the next available locks. Each successful
// start mutates the lineage table, so the pass restarts after every start
// (preserving arrival-order preference); finished entries are compacted out
// in the same sweep.
func (s *jitScheduler) scan() {
	if s.scanning {
		s.rescan = true
		return
	}
	s.scanning = true
	defer func() { s.scanning = false }()
	for {
		s.rescan = false
		prioritized := s.hasPrioritizedWaiter()
		q := s.c.waitQ
		w := 0
		started := false
		for r := 0; r < len(q); r++ {
			run := q[r]
			if !run.queued || run.done || run.running {
				run.queued = false
				continue
			}
			if prioritized && !run.prioritized {
				q[w] = run
				w++
				continue
			}
			if !s.tryPlace(run) {
				q[w] = run
				w++
				continue
			}
			s.c.startRun(run) // tryPlace already dequeued the run
			w += copy(q[w:], q[r+1:])
			started = true
			break
		}
		for i := w; i < len(q); i++ {
			q[i] = nil
		}
		s.c.waitQ = q[:w]
		if !started && !s.rescan {
			return
		}
	}
}

// jitPlacement is one device's placement decision during the eligibility
// test. The implied pre/post routines are accumulated directly into the
// scheduler's scratch sets rather than materialized per device.
type jitPlacement struct {
	slot   int // index into the run's devices
	mode   int // 0 = append, 1 = post-lease (insert after anchor), 2 = pre-lease (insert before anchor)
	anchor routine.ID
}

// tryPlace runs the JiT eligibility test (§5): the routine is placed — and
// may start — only if every device it needs can be obtained immediately,
// either because the lock is free, or through a post-lease from a routine
// that is done with the device, or through a pre-lease from a routine that
// has not used it yet. Placement is rejected if the implied preSet and
// postSet intersect or contradict the existing serialization order.
func (s *jitScheduler) tryPlace(run *evRun) bool {
	s.plans = s.plans[:0]
	s.pre.reset()
	s.post.reset()

	for slot, d := range run.r.Devices() {
		l := run.devs[slot].dev.lin
		fi := -1
		nonReleased := 0
		for i, a := range l.Accesses {
			if a.Status != lineage.Released {
				if fi == -1 {
					fi = i
				}
				nonReleased++
			}
		}
		switch {
		case fi == -1:
			// Lock free (possibly via earlier post-leases): take it at the end.
			s.plans = append(s.plans, jitPlacement{slot: slot, mode: 0})
			for _, a := range l.Accesses {
				s.pre.add(a.Routine)
			}

		case nonReleased == 1:
			owner := l.Accesses[fi]
			ownerRun := s.c.run(owner.Routine)
			if ownerRun == nil {
				return false
			}
			ownerOn := ownerRun.on(d)
			switch {
			case s.c.opts.PostLease && ownerOn.lastTouchDone && (!ownerOn.firstTouched || !run.r.Reads(d)):
				// (The dirty-read restriction of §4.1: no post-lease of a
				// device the source wrote to a routine that reads it.)
				s.plans = append(s.plans, jitPlacement{slot: slot, mode: 1, anchor: owner.Routine})
				for _, a := range l.Accesses[:fi+1] {
					s.pre.add(a.Routine)
				}
			case s.c.opts.PreLease && owner.Status == lineage.Scheduled && !ownerRun.uses(d):
				s.plans = append(s.plans, jitPlacement{slot: slot, mode: 2, anchor: owner.Routine})
				for _, a := range l.Accesses[:fi] {
					s.pre.add(a.Routine)
				}
				for _, a := range l.Accesses[fi:] {
					s.post.add(a.Routine)
				}
			default:
				return false
			}

		default:
			// Two or more routines already queued for the device: the lock
			// cannot be obtained right now.
			return false
		}
	}

	s.c.foldedPre(run, &s.pre)
	for _, id := range s.pre.ids {
		if s.post.has(id) {
			return false
		}
	}

	// Verify against (and record in) the precedence graph; every new edge is
	// incident to this routine, so removing its node undoes a failed attempt.
	node := order.RoutineNode(run.id)
	s.c.graph.AddNode(node)
	if !addEdgesSet(s.c.graph, &s.pre, node, &s.post) {
		s.c.graph.Remove(node)
		return false
	}

	for _, p := range s.plans {
		// JiT placements carry no time estimates: the routine starts using its
		// devices immediately, so positional order alone defines the schedule.
		acc := lineage.Access{Routine: run.id, Status: lineage.Scheduled}
		l := run.devs[p.slot].dev.lin
		idx := len(l.Accesses) // mode 0: append
		if p.mode != 0 {
			if idx = l.Find(p.anchor); idx < 0 {
				panic(fmt.Sprintf("visibility: jit placement: anchor R%d gone from %s", p.anchor, l.Device))
			}
		}
		if p.mode == 1 {
			idx++ // after the anchor
		}
		err := l.PlaceAt(idx, acc)
		if err == nil && p.mode == 1 {
			// The post-lease hand-off: the source's lock-access is released.
			err = l.SetStatus(p.anchor, lineage.Released)
		}
		if err != nil {
			panic(fmt.Sprintf("visibility: jit placement: %v", err))
		}
		if p.mode == 2 {
			run.devs[p.slot].preLeasedFrom = p.anchor
		}
	}
	run.placed = true
	s.c.removeFromWaitQ(run)
	return true
}

// --- Timeline -----------------------------------------------------------------

// tlScheduler speculatively places every new routine into the lineage table
// immediately, using estimated lock-hold durations to find gaps (Fig 9,
// Algorithm 1). A placement is valid only if, across all of the routine's
// devices, the union of routines placed before it and the union placed after
// it do not intersect. If no gap placement is consistent, the routine is
// appended at the end of every lineage.
type tlScheduler struct {
	c *evController

	// Scratch reused across searches: the accumulated preSet/postSet (with
	// truncate-based backtracking), the chosen placements, one gap buffer per
	// search depth, and the search in progress (run, start time, step budget).
	pre        idSet
	post       idSet
	placements []tlPlacement
	gapBufs    [][]lineage.Gap
	run        *evRun
	now        time.Time
	budget     int
}

func (s *tlScheduler) kind() SchedulerKind { return SchedTL }

func (s *tlScheduler) onSubmit(run *evRun) {
	if s.search(run) {
		s.apply(run)
	} else {
		s.c.placeAtEnd(run)
	}
	s.c.startRun(run)
}

func (s *tlScheduler) onFree()        {}
func (s *tlScheduler) onRoutineDone() {}
func (s *tlScheduler) rebase(id routine.ID) {
	s.pre.rebase(id)
	s.post.rebase(id)
}

// tlPlacement is the chosen gap for one device of the routine being placed;
// placement i belongs to the routine's device i.
type tlPlacement struct {
	index int
	start time.Time
	dur   time.Duration
}

// tlSearchBudget bounds Algorithm 1's backtracking. Realistic lineage tables
// produce a handful of gaps per device and the search finishes in tens of
// steps; the budget only exists to keep pathological workloads (very long
// routines over crowded lineages) from exploding — when exhausted the routine
// simply falls back to appending at the end of every lineage.
const tlSearchBudget = 4096

// search implements Algorithm 1: a backtracking walk over the routine's
// devices in first-touch order, trying lineage gaps in temporal order and
// validating the preSet/postSet disjointness at every step.
//
// The preSet/postSet are maintained incrementally in the scheduler's scratch
// idSets: trying a gap tentatively adds that lineage's prefix routines to pre
// and suffix routines to post, checking each against the opposite set
// (equivalent to the full union-intersection test, since a routine appears at
// most once per lineage and the sets are disjoint by induction); rejecting or
// backtracking truncates the sets back to their marks. No per-gap map or
// slice is ever allocated. On success s.placements holds one gap per device
// and the sets hold exactly the routine's accumulated preSet/postSet, which
// apply() turns into precedence edges.
func (s *tlScheduler) search(run *evRun) bool {
	s.run, s.now, s.budget = run, s.c.env.Now(), tlSearchBudget
	s.placements = s.placements[:0]
	s.pre.reset()
	s.post.reset()
	for len(s.gapBufs) < len(run.devs) {
		s.gapBufs = append(s.gapBufs, make([]lineage.Gap, 0, 16))
	}
	return s.searchFrom(0, s.now)
}

// searchFrom places the routine's devices i, i+1, … with device i's hold
// starting no earlier than earliest.
func (s *tlScheduler) searchFrom(i int, earliest time.Time) bool {
	if s.budget <= 0 {
		return false
	}
	s.budget--
	run := s.run
	if i == len(run.devs) {
		return true
	}
	dur := run.r.HoldEstimate(run.r.Devices()[i], s.c.opts.DefaultShort)
	l := run.devs[i].dev.lin
	gaps := l.GapsInto(s.gapBufs[i][:0], s.now)
	s.gapBufs[i] = gaps
	for _, gap := range gaps {
		if !s.c.opts.PreLease && gap.Index < len(l.Accesses) {
			// Placing ahead of an already-scheduled access is a pre-lease;
			// with pre-leasing disabled only the tail gap is allowed.
			continue
		}
		start, fits := gap.Fits(earliest, dur)
		if !fits {
			continue
		}
		preMark, postMark := len(s.pre.ids), len(s.post.ids)
		ok := true
		for _, a := range l.Accesses[:gap.Index] {
			if s.post.has(a.Routine) {
				ok = false
				break
			}
			s.pre.add(a.Routine)
		}
		if ok {
			for _, a := range l.Accesses[gap.Index:] {
				if s.pre.has(a.Routine) {
					ok = false
					break
				}
				s.post.add(a.Routine)
			}
		}
		if ok {
			s.placements = append(s.placements, tlPlacement{index: gap.Index, start: start, dur: dur})
			if s.searchFrom(i+1, start.Add(dur)) {
				return true
			}
			s.placements = s.placements[:len(s.placements)-1]
		}
		// Backtrack: undo this gap's tentative additions (the next-gap
		// step of Algo 1).
		s.pre.truncate(preMark)
		s.post.truncate(postMark)
	}
	return false
}

// apply inserts the placements a successful search chose into the lineage
// table and the precedence graph, consuming the preSet/postSet it left in
// the scratch sets. If the graph rejects an edge (the placement would
// contradict ordering constraints not visible in the lineages alone), the
// routine falls back to appending at the end of every lineage.
func (s *tlScheduler) apply(run *evRun) {
	node := order.RoutineNode(run.id)
	s.c.graph.AddNode(node)
	s.c.foldedPre(run, &s.pre)
	if !addEdgesSet(s.c.graph, &s.pre, node, &s.post) {
		s.c.graph.Remove(node)
		s.c.placeAtEnd(run)
		return
	}
	for i, p := range s.placements {
		rd := &run.devs[i]
		l := rd.dev.lin
		if p.index < len(l.Accesses) && s.c.opts.PreLease {
			// Being placed ahead of an already-scheduled access is a pre-lease
			// from that access's routine; the revocation clock is armed when
			// this routine actually acquires the device.
			rd.preLeasedFrom = l.Accesses[p.index].Routine
		}
		acc := lineage.Access{Routine: run.id, Status: lineage.Scheduled, Start: p.start, Duration: p.dur}
		if err := l.PlaceAt(p.index, acc); err != nil {
			panic(fmt.Sprintf("visibility: timeline placement: %v", err))
		}
	}
	run.placed = true
}
