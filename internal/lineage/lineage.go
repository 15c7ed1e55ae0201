// Package lineage implements SafeHome's locking data-structure (§4.2–4.3 of
// the paper): per-device lineages of lock-access entries, the four
// serializability invariants, gap search for the Timeline scheduler,
// pre-/post-lease placement, commit compaction ("last writer wins"),
// current-device-status inference, and rollback targets for aborts.
//
// The lineage table is a purely in-memory, single-threaded structure owned by
// the Eventual Visibility controller; it never talks to devices.
package lineage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// Status is the lock status of a lock-access entry (Fig 5).
type Status int

const (
	// Scheduled means the routine is planned to acquire the lock but has not
	// executed any command on the device yet.
	Scheduled Status = iota
	// Acquired means the routine currently holds and uses the lock.
	Acquired
	// Released means the routine is done with the device (its last command on
	// the device completed, or it finished); successors may acquire.
	Released
)

func (s Status) String() string {
	switch s {
	case Scheduled:
		return "S"
	case Acquired:
		return "A"
	case Released:
		return "R"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Access is one lock-access entry in a device's lineage: which routine plans
// to (or does) hold the device's virtual lock, what state it drives the
// device to, and the estimated start/duration of the hold (used by the
// Timeline scheduler's gap search and by lease revocation timeouts).
type Access struct {
	Routine  routine.ID
	Status   Status
	Target   device.State  // last state this routine has driven / will drive the device to
	Start    time.Time     // estimated start of the exclusive hold
	Duration time.Duration // estimated length of the exclusive hold
}

// End returns the estimated end of the hold.
func (a Access) End() time.Time { return a.Start.Add(a.Duration) }

// String renders the entry compactly, e.g. "R3[A]->ON".
func (a Access) String() string {
	return fmt.Sprintf("R%d[%s]->%s", a.Routine, a.Status, a.Target)
}

// Lineage is the ordered plan of lock transitions for one device: its last
// committed state followed by lock-access entries in serialization order.
//
// A Table hands out one stable *Lineage per device (Table.Lineage), and every
// per-device operation of the table is a method here. The controllers resolve
// a routine's lineages once at submission and work through the pointers, so
// the per-command path never hashes a device ID; the Table methods of the
// same names are the by-ID conveniences.
type Lineage struct {
	Device    device.ID
	Committed device.State
	Accesses  []Access
	// folded is the most recent routine whose lock-access was folded away by
	// commit compaction (Compact / CompactBefore). The folded routine's write
	// is the device's committed baseline, so every later placement on the
	// device must serialize after it — but its access is gone from the
	// lineage, so the controllers recover the constraint from LastFolded.
	folded routine.ID
}

// Errors returned by table operations.
var (
	ErrNoAccess   = errors.New("lineage: routine has no access on device")
	ErrHasAccess  = errors.New("lineage: routine already has an access on device")
	ErrBadStatus  = errors.New("lineage: invalid status transition")
	ErrViolation  = errors.New("lineage: invariant violation")
	ErrNoSuchSlot = errors.New("lineage: insertion anchor not found")
)

// Table is the virtual locking table: one lineage per device plus the last
// committed state of every device (Fig 4). It is not safe for concurrent use;
// the controllers that own it are single-threaded.
type Table struct {
	byDev map[device.ID]*Lineage
	lins  []*Lineage // every lineage, in insertion order
}

// NewTable builds a table whose committed states are the given initial device
// states. Devices not present are added lazily with an unknown committed
// state when first touched.
func NewTable(initial map[device.ID]device.State) *Table {
	t := &Table{byDev: make(map[device.ID]*Lineage)}
	ids := make([]device.ID, 0, len(initial))
	for d := range initial {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, d := range ids {
		t.Lineage(d).Committed = initial[d]
	}
	return t
}

// Lineage returns the lineage for a device (creating an empty one if absent).
// The pointer stays valid for the life of the table.
func (t *Table) Lineage(d device.ID) *Lineage {
	l, ok := t.byDev[d]
	if !ok {
		l = &Lineage{Device: d}
		t.byDev[d] = l
		t.lins = append(t.lins, l)
	}
	return l
}

// Devices returns all device IDs known to the table, in insertion order.
func (t *Table) Devices() []device.ID {
	out := make([]device.ID, len(t.lins))
	for i, l := range t.lins {
		out[i] = l.Device
	}
	return out
}

// Committed returns the last committed state of the device.
func (t *Table) Committed(d device.ID) device.State { return t.Lineage(d).Committed }

// SetCommitted overwrites the committed state of the device.
func (t *Table) SetCommitted(d device.ID, s device.State) { t.Lineage(d).Committed = s }

// Find returns the index of rid's access in the lineage, or -1.
func (l *Lineage) Find(rid routine.ID) int {
	for i := range l.Accesses {
		if l.Accesses[i].Routine == rid {
			return i
		}
	}
	return -1
}

// Find returns the index of rid's access in d's lineage, or -1.
func (t *Table) Find(d device.ID, rid routine.ID) int { return t.Lineage(d).Find(rid) }

// Access returns rid's access entry on d.
func (t *Table) Access(d device.ID, rid routine.ID) (Access, bool) {
	l := t.Lineage(d)
	if i := l.Find(rid); i >= 0 {
		return l.Accesses[i], true
	}
	return Access{}, false
}

// Append adds a Scheduled access at the tail of d's lineage. It returns the
// routines that precede the new access (its per-device preSet).
func (t *Table) Append(d device.ID, a Access) ([]routine.ID, error) {
	l := t.Lineage(d)
	pre := routinesOf(l.Accesses)
	if err := l.PlaceAt(len(l.Accesses), a); err != nil {
		return nil, err
	}
	return pre, nil
}

// InsertAt inserts an access at position idx of d's lineage (0 = before
// everything). It returns the per-device preSet and postSet implied by the
// position.
func (t *Table) InsertAt(d device.ID, idx int, a Access) (pre, post []routine.ID, err error) {
	l := t.Lineage(d)
	if idx >= 0 && idx <= len(l.Accesses) && l.Find(a.Routine) < 0 {
		pre = routinesOf(l.Accesses[:idx])
		post = routinesOf(l.Accesses[idx:])
	}
	if err := l.PlaceAt(idx, a); err != nil {
		return nil, nil, err
	}
	return pre, post, nil
}

// PlaceAt is the allocation-free core of InsertAt: it inserts the access at
// position idx of the lineage without materializing the pre/post routine
// sets. The schedulers use it on the hot path (they track pre/post in
// reusable scratch sets of their own); InsertAt stays as the convenience
// wrapper.
func (l *Lineage) PlaceAt(idx int, a Access) error {
	if l.Find(a.Routine) >= 0 {
		return fmt.Errorf("%w: R%d on %s", ErrHasAccess, a.Routine, l.Device)
	}
	if idx < 0 || idx > len(l.Accesses) {
		return fmt.Errorf("%w: index %d out of range [0,%d]", ErrNoSuchSlot, idx, len(l.Accesses))
	}
	l.Accesses = append(l.Accesses, Access{})
	copy(l.Accesses[idx+1:], l.Accesses[idx:])
	l.Accesses[idx] = a
	return nil
}

// PlaceAt inserts the access at position idx of d's lineage (Lineage.PlaceAt).
func (t *Table) PlaceAt(d device.ID, idx int, a Access) error { return t.Lineage(d).PlaceAt(idx, a) }

// InsertBefore inserts an access immediately before the access of routine
// `anchor` in d's lineage (the pre-lease placement of Fig 6b).
func (t *Table) InsertBefore(d device.ID, a Access, anchor routine.ID) (pre, post []routine.ID, err error) {
	idx := t.Find(d, anchor)
	if idx < 0 {
		return nil, nil, fmt.Errorf("%w: anchor R%d on %s", ErrNoSuchSlot, anchor, d)
	}
	return t.InsertAt(d, idx, a)
}

// InsertAfter inserts an access immediately after the access of routine
// `anchor` in d's lineage (the post-lease placement of Fig 6c).
func (t *Table) InsertAfter(d device.ID, a Access, anchor routine.ID) (pre, post []routine.ID, err error) {
	idx := t.Find(d, anchor)
	if idx < 0 {
		return nil, nil, fmt.Errorf("%w: anchor R%d on %s", ErrNoSuchSlot, anchor, d)
	}
	return t.InsertAt(d, idx+1, a)
}

// SetStatus transitions rid's access to the given status. The only legal
// transitions are Scheduled→Acquired, Acquired→Released and (for early
// placement bookkeeping) Scheduled→Released.
func (l *Lineage) SetStatus(rid routine.ID, s Status) error {
	idx := l.Find(rid)
	if idx < 0 {
		return fmt.Errorf("%w: R%d on %s", ErrNoAccess, rid, l.Device)
	}
	a := &l.Accesses[idx]
	if s < a.Status {
		return fmt.Errorf("%w: R%d on %s: %v -> %v", ErrBadStatus, rid, l.Device, a.Status, s)
	}
	a.Status = s
	return nil
}

// SetStatus transitions rid's access on d (Lineage.SetStatus).
func (t *Table) SetStatus(d device.ID, rid routine.ID, s Status) error {
	return t.Lineage(d).SetStatus(rid, s)
}

// SetTarget records the state rid's most recent command drove the device to.
// It keeps the lineage usable for current-state inference (Fig 8) and for
// rollbacks.
func (l *Lineage) SetTarget(rid routine.ID, st device.State) error {
	idx := l.Find(rid)
	if idx < 0 {
		return fmt.Errorf("%w: R%d on %s", ErrNoAccess, rid, l.Device)
	}
	l.Accesses[idx].Target = st
	return nil
}

// SetTarget records rid's latest target on d (Lineage.SetTarget).
func (t *Table) SetTarget(d device.ID, rid routine.ID, st device.State) error {
	return t.Lineage(d).SetTarget(rid, st)
}

// Status returns the current status of rid's access.
func (l *Lineage) Status(rid routine.ID) (Status, bool) {
	if i := l.Find(rid); i >= 0 {
		return l.Accesses[i].Status, true
	}
	return Scheduled, false
}

// Status returns the current status of rid's access on d.
func (t *Table) Status(d device.ID, rid routine.ID) (Status, bool) { return t.Lineage(d).Status(rid) }

// Remove deletes rid's access from the lineage, reporting whether it had one.
func (l *Lineage) Remove(rid routine.ID) bool {
	idx := l.Find(rid)
	if idx < 0 {
		return false
	}
	l.Accesses = append(l.Accesses[:idx], l.Accesses[idx+1:]...)
	return true
}

// RemoveAccess deletes rid's access from d's lineage (no-op if absent).
func (t *Table) RemoveAccess(d device.ID, rid routine.ID) { t.Lineage(d).Remove(rid) }

// RemoveRoutine deletes rid's accesses from every lineage and returns the
// devices it was removed from.
func (t *Table) RemoveRoutine(rid routine.ID) []device.ID {
	var out []device.ID
	for _, l := range t.lins {
		if l.Remove(rid) {
			out = append(out, l.Device)
		}
	}
	return out
}

// CanAcquire reports whether rid may acquire the device's lock right now: rid
// has an access on it and every access before it is Released.
func (l *Lineage) CanAcquire(rid routine.ID) bool {
	for i := range l.Accesses {
		if l.Accesses[i].Routine == rid {
			return true
		}
		if l.Accesses[i].Status != Released {
			return false
		}
	}
	return false
}

// CanAcquire reports whether rid may acquire d's lock (Lineage.CanAcquire).
func (t *Table) CanAcquire(d device.ID, rid routine.ID) bool { return t.Lineage(d).CanAcquire(rid) }

// Holder returns the routine whose access on d is currently Acquired (at most
// one, by Invariant 2), or routine.None.
func (t *Table) Holder(d device.ID) routine.ID {
	for _, a := range t.Lineage(d).Accesses {
		if a.Status == Acquired {
			return a.Routine
		}
	}
	return routine.None
}

// NextWaiter returns the first non-Released access's routine on d (the
// effective current or next lock owner), or routine.None.
func (t *Table) NextWaiter(d device.ID) routine.ID {
	for _, a := range t.Lineage(d).Accesses {
		if a.Status != Released {
			return a.Routine
		}
	}
	return routine.None
}

// PreSet returns the routines whose access on d is strictly before rid's.
func (t *Table) PreSet(d device.ID, rid routine.ID) []routine.ID {
	l := t.Lineage(d)
	idx := l.Find(rid)
	if idx < 0 {
		return nil
	}
	return routinesOf(l.Accesses[:idx])
}

// PostSet returns the routines whose access on d is strictly after rid's.
func (t *Table) PostSet(d device.ID, rid routine.ID) []routine.ID {
	l := t.Lineage(d)
	idx := l.Find(rid)
	if idx < 0 {
		return nil
	}
	return routinesOf(l.Accesses[idx+1:])
}

// Next returns the routine whose access immediately follows rid's — the head
// of rid's PostSet, without materializing it — or routine.None if rid has no
// access or is last.
func (l *Lineage) Next(rid routine.ID) routine.ID {
	if idx := l.Find(rid); idx >= 0 && idx+1 < len(l.Accesses) {
		return l.Accesses[idx+1].Routine
	}
	return routine.None
}

// CurrentState infers the device's current state from the lineage alone
// (Fig 8), without querying the device:
//
//  1. an Acquired access exists → its Target;
//  2. otherwise the right-most Released access with a known target → its Target;
//  3. otherwise the committed state.
func (l *Lineage) CurrentState() device.State {
	for _, a := range l.Accesses {
		if a.Status == Acquired && a.Target != device.StateUnknown {
			return a.Target
		}
	}
	for i := len(l.Accesses) - 1; i >= 0; i-- {
		if l.Accesses[i].Status == Released && l.Accesses[i].Target != device.StateUnknown {
			return l.Accesses[i].Target
		}
	}
	return l.Committed
}

// CurrentState infers d's current state from its lineage (Lineage.CurrentState).
func (t *Table) CurrentState(d device.ID) device.State { return t.Lineage(d).CurrentState() }

// RollbackTarget returns the state the device should be restored to if
// routine rid aborts: the Target of the access immediately to the left of
// rid's entry (if it has a known target), else the committed state (§4.3
// "Aborts and Rollbacks").
func (l *Lineage) RollbackTarget(rid routine.ID) device.State {
	for i := l.Find(rid) - 1; i >= 0; i-- {
		if l.Accesses[i].Target != device.StateUnknown {
			return l.Accesses[i].Target
		}
	}
	return l.Committed
}

// RollbackTarget returns d's restore state for an abort of rid
// (Lineage.RollbackTarget).
func (t *Table) RollbackTarget(d device.ID, rid routine.ID) device.State {
	return t.Lineage(d).RollbackTarget(rid)
}

// LastAcquirerWas reports whether routine rid is the most recent routine to
// have actually held (Acquired or later Released after acquiring) the device
// — i.e. whether an abort of rid needs to physically restore it (§4.3).
// Accesses that are still Scheduled never held the device.
func (l *Lineage) LastAcquirerWas(rid routine.ID) bool {
	last := routine.None
	for _, a := range l.Accesses {
		if a.Status == Acquired || (a.Status == Released && a.Target != device.StateUnknown) {
			last = a.Routine
		}
	}
	return last == rid && last != routine.None
}

// LastAcquirerWas reports whether rid last held d (Lineage.LastAcquirerWas).
func (t *Table) LastAcquirerWas(d device.ID, rid routine.ID) bool {
	return t.Lineage(d).LastAcquirerWas(rid)
}

// Compact performs commit compaction for routine rid on one device (Fig 7):
// the committed state becomes rid's recorded target (when known), and rid's
// access plus every access before it are removed in place — later routines
// in the serialization order will overwrite earlier routines' effects ("last
// writer wins"). A lineage without an access of rid is left alone.
func (l *Lineage) Compact(rid routine.ID) {
	idx := l.Find(rid)
	if idx < 0 {
		return
	}
	if tgt := l.Accesses[idx].Target; tgt != device.StateUnknown {
		l.Committed = tgt
	}
	l.Accesses = l.Accesses[:copy(l.Accesses, l.Accesses[idx+1:])]
	l.folded = rid
}

// Compact performs commit compaction for routine rid (Lineage.Compact) on
// each of the given devices — the committing routine's own; no other lineage
// can hold an access of it.
func (t *Table) Compact(rid routine.ID, devs []device.ID) {
	for _, d := range devs {
		t.Lineage(d).Compact(rid)
	}
}

// LastFolded returns the most recent routine whose access was folded away by
// compaction (routine.None if compaction never touched the device). Later
// placements on the device must serialize after it.
func (l *Lineage) LastFolded() routine.ID { return l.folded }

// LastFolded returns the routine last folded out of d's lineage
// (Lineage.LastFolded).
func (t *Table) LastFolded(d device.ID) routine.ID { return t.Lineage(d).folded }

// CompactBefore folds away fully released lock-access history older than the
// horizon: for every device, the leading run of Released accesses whose
// estimated hold ended before t is removed, each removed access's known
// target folded into the committed state (last writer wins, exactly like
// commit compaction). It returns the number of accesses removed.
//
// This is the maintenance companion of Compact for long-lived homes: commit
// compaction only folds history beneath a *committing* routine, so a device
// whose later accessors are all still alive (e.g. released early via
// post-lease and blocked elsewhere) accumulates Released entries that every
// gap scan then walks. Folding a Released access makes its effect permanent:
// an abort of its routine after the fold no longer restores the device —
// callers must pick a horizon comfortably above any live routine's span.
func (t *Table) CompactBefore(horizon time.Time) int {
	removed := 0
	for _, l := range t.lins {
		cut := 0
		for cut < len(l.Accesses) {
			a := l.Accesses[cut]
			if a.Status != Released || !a.End().Before(horizon) {
				break
			}
			if a.Target != device.StateUnknown {
				l.Committed = a.Target
			}
			l.folded = a.Routine
			cut++
		}
		if cut > 0 {
			l.Accesses = l.Accesses[:copy(l.Accesses, l.Accesses[cut:])]
			removed += cut
		}
	}
	return removed
}

// Gap is a free interval in a device's lineage where a new lock-access can be
// placed. Index is the insertion position into Accesses; End is zero for the
// unbounded gap after the last access.
type Gap struct {
	Index int
	Start time.Time
	End   time.Time
}

// Bounded reports whether the gap has a finite end.
func (g Gap) Bounded() bool { return !g.End.IsZero() }

// Fits reports whether a hold of length dur starting no earlier than earliest
// fits inside the gap, and returns the start time it would get.
func (g Gap) Fits(earliest time.Time, dur time.Duration) (time.Time, bool) {
	start := g.Start
	if earliest.After(start) {
		start = earliest
	}
	if !g.Bounded() {
		return start, true
	}
	if start.Add(dur).After(g.End) {
		return time.Time{}, false
	}
	return start, true
}

// Gaps enumerates the free intervals of d's lineage based on the estimated
// start/duration of its existing accesses, beginning no earlier than `from`.
// The final gap (after the last access) is unbounded. Used by the Timeline
// scheduler's placement search (Fig 9, Algorithm 1).
func (t *Table) Gaps(d device.ID, from time.Time) []Gap {
	return t.Lineage(d).GapsInto(nil, from)
}

// GapsInto is Gaps writing into a caller-provided buffer: the gaps are
// appended to buf and the extended slice returned, so a caller that reuses
// its buffer (the Timeline scheduler keeps one per search depth) enumerates
// gaps without allocating.
func (l *Lineage) GapsInto(buf []Gap, from time.Time) []Gap {
	cursor := from
	for i, a := range l.Accesses {
		if a.Start.After(cursor) {
			buf = append(buf, Gap{Index: i, Start: cursor, End: a.Start})
		}
		if e := a.End(); e.After(cursor) {
			cursor = e
		}
	}
	return append(buf, Gap{Index: len(l.Accesses), Start: cursor})
}

// GapsInto enumerates d's gaps into buf (Lineage.GapsInto).
func (t *Table) GapsInto(buf []Gap, d device.ID, from time.Time) []Gap {
	return t.Lineage(d).GapsInto(buf, from)
}

// TailStart returns the start of the unbounded gap after the last access of
// the lineage, i.e. the earliest time a new tail access could begin: the
// later of `from` and the latest estimated access end. It is the
// allocation-free equivalent of Gaps(d, from)[last].Start, used by the
// append-at-end placement path.
func (l *Lineage) TailStart(from time.Time) time.Time {
	cursor := from
	for _, a := range l.Accesses {
		if e := a.End(); e.After(cursor) {
			cursor = e
		}
	}
	return cursor
}

// TailStart returns where a new tail access on d could begin
// (Lineage.TailStart).
func (t *Table) TailStart(d device.ID, from time.Time) time.Time {
	return t.Lineage(d).TailStart(from)
}

// --- invariants (§4.3) -----------------------------------------------------

// CheckInvariants verifies invariants 1–4 of §4.3 and returns a descriptive
// error for the first violation found. It is used by tests and can be enabled
// at runtime by the EV controller in debug mode.
func (t *Table) CheckInvariants() error {
	// Invariant 1: lock-accesses in a lineage do not overlap in (estimated)
	// time, when estimates are present.
	for _, l := range t.lins {
		d := l.Device
		for i := 1; i < len(l.Accesses); i++ {
			prev, cur := l.Accesses[i-1], l.Accesses[i]
			if prev.Start.IsZero() || cur.Start.IsZero() || prev.Duration == 0 || cur.Duration == 0 {
				continue
			}
			if prev.End().After(cur.Start) && prev.Status == Scheduled && cur.Status == Scheduled {
				return fmt.Errorf("%w: invariant 1: %s accesses %v and %v overlap", ErrViolation, d, prev, cur)
			}
		}
	}
	// Invariant 2: at most one Acquired access per lineage.
	for _, l := range t.lins {
		d := l.Device
		acquired := 0
		for _, a := range l.Accesses {
			if a.Status == Acquired {
				acquired++
			}
		}
		if acquired > 1 {
			return fmt.Errorf("%w: invariant 2: device %s has %d Acquired accesses", ErrViolation, d, acquired)
		}
	}
	// Invariant 3: [R]* [A]? [S]* per lineage.
	for _, l := range t.lins {
		d := l.Device
		phase := Released // expect Released first
		for _, a := range l.Accesses {
			switch a.Status {
			case Released:
				if phase != Released {
					return fmt.Errorf("%w: invariant 3: device %s has Released after %v", ErrViolation, d, phase)
				}
			case Acquired:
				if phase == Scheduled {
					return fmt.Errorf("%w: invariant 3: device %s has Acquired after Scheduled", ErrViolation, d)
				}
				phase = Acquired
			case Scheduled:
				phase = Scheduled
			}
		}
	}
	// Invariant 4: consistent serialize-before ordering across lineages.
	type pair struct{ a, b routine.ID }
	seen := make(map[pair]device.ID)
	for _, l := range t.lins {
		d, accs := l.Device, l.Accesses
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				ri, rj := accs[i].Routine, accs[j].Routine
				if ri == rj {
					continue
				}
				if prevDev, ok := seen[pair{rj, ri}]; ok {
					return fmt.Errorf("%w: invariant 4: R%d before R%d on %s but R%d before R%d on %s",
						ErrViolation, rj, ri, prevDev, ri, rj, d)
				}
				if _, ok := seen[pair{ri, rj}]; !ok {
					seen[pair{ri, rj}] = d
				}
			}
		}
	}
	return nil
}

// String renders the whole table, one line per device, in the style of Fig 5.
func (t *Table) String() string {
	var b strings.Builder
	for _, l := range t.lins {
		fmt.Fprintf(&b, "%-12s commit=%-8s", l.Device, l.Committed)
		for _, a := range l.Accesses {
			fmt.Fprintf(&b, " | %s", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func routinesOf(accs []Access) []routine.ID {
	return AccessRoutinesInto(make([]routine.ID, 0, len(accs)), accs)
}

// AccessRoutinesInto appends the routine IDs of the given accesses to dst
// and returns the extended slice — the append-style, allocation-free
// counterpart of the package-private routinesOf (which backs PreSet/PostSet
// and friends). Hot-path callers that need the IDs as a slice can reuse a
// buffer; the EV schedulers go one step further and accumulate IDs straight
// into their scratch sets without materializing a slice at all.
func AccessRoutinesInto(dst []routine.ID, accs []Access) []routine.ID {
	for _, a := range accs {
		dst = append(dst, a.Routine)
	}
	return dst
}
