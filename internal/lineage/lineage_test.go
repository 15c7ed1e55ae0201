package lineage

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

var (
	devA = device.ID("ac")
	devB = device.ID("window")
	devC = device.ID("light")
	t0   = time.Date(2021, 4, 26, 8, 0, 0, 0, time.UTC)
)

func newTestTable() *Table {
	return NewTable(map[device.ID]device.State{
		devA: device.Off,
		devB: device.Open,
		devC: device.Off,
	})
}

func TestNewTableCommittedStates(t *testing.T) {
	tab := newTestTable()
	if got := tab.Committed(devA); got != device.Off {
		t.Fatalf("Committed(%s) = %q, want OFF", devA, got)
	}
	if got := tab.Committed(devB); got != device.Open {
		t.Fatalf("Committed(%s) = %q, want OPEN", devB, got)
	}
	if got := tab.Committed("unknown-device"); got != device.StateUnknown {
		t.Fatalf("Committed(unknown) = %q, want unknown", got)
	}
	if len(tab.Devices()) != 4 {
		t.Fatalf("Devices() = %v, want 4 entries (3 initial + lazily added)", tab.Devices())
	}
}

func TestAppendAndFind(t *testing.T) {
	tab := newTestTable()
	pre, err := tab.Append(devA, Access{Routine: 1, Status: Scheduled, Target: device.On})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(pre) != 0 {
		t.Fatalf("first append preSet = %v, want empty", pre)
	}
	pre, err = tab.Append(devA, Access{Routine: 2, Status: Scheduled, Target: device.Off})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(pre) != 1 || pre[0] != 1 {
		t.Fatalf("second append preSet = %v, want [1]", pre)
	}
	if _, err := tab.Append(devA, Access{Routine: 1}); !errors.Is(err, ErrHasAccess) {
		t.Fatalf("duplicate append err = %v, want ErrHasAccess", err)
	}
	if idx := tab.Find(devA, 2); idx != 1 {
		t.Fatalf("Find(R2) = %d, want 1", idx)
	}
	if idx := tab.Find(devA, 99); idx != -1 {
		t.Fatalf("Find(R99) = %d, want -1", idx)
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Scheduled})

	pre, post, err := tab.InsertBefore(devA, Access{Routine: 2, Status: Scheduled}, 3)
	if err != nil {
		t.Fatalf("InsertBefore: %v", err)
	}
	if len(pre) != 1 || pre[0] != 1 {
		t.Fatalf("preSet = %v, want [1]", pre)
	}
	if len(post) != 1 || post[0] != 3 {
		t.Fatalf("postSet = %v, want [3]", post)
	}
	wantOrder := []routine.ID{1, 2, 3}
	for i, a := range tab.Lineage(devA).Accesses {
		if a.Routine != wantOrder[i] {
			t.Fatalf("lineage order = %v, want %v", tab.Lineage(devA).Accesses, wantOrder)
		}
	}

	_, _, err = tab.InsertAfter(devA, Access{Routine: 4, Status: Scheduled}, 3)
	if err != nil {
		t.Fatalf("InsertAfter: %v", err)
	}
	if idx := tab.Find(devA, 4); idx != 3 {
		t.Fatalf("R4 at index %d, want 3 (after R3)", idx)
	}

	if _, _, err := tab.InsertBefore(devA, Access{Routine: 5}, 42); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("InsertBefore missing anchor err = %v, want ErrNoSuchSlot", err)
	}
}

func TestStatusTransitions(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	if err := tab.SetStatus(devA, 1, Acquired); err != nil {
		t.Fatalf("Scheduled->Acquired: %v", err)
	}
	if err := tab.SetStatus(devA, 1, Released); err != nil {
		t.Fatalf("Acquired->Released: %v", err)
	}
	if err := tab.SetStatus(devA, 1, Acquired); !errors.Is(err, ErrBadStatus) {
		t.Fatalf("Released->Acquired err = %v, want ErrBadStatus", err)
	}
	if err := tab.SetStatus(devA, 99, Acquired); !errors.Is(err, ErrNoAccess) {
		t.Fatalf("missing access err = %v, want ErrNoAccess", err)
	}
}

func TestCanAcquireAndHolder(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Scheduled})

	if !tab.CanAcquire(devA, 1) {
		t.Fatal("R1 should be able to acquire (head of lineage)")
	}
	if tab.CanAcquire(devA, 2) {
		t.Fatal("R2 must not acquire while R1 is not Released")
	}
	if tab.CanAcquire(devA, 99) {
		t.Fatal("routine without access must not acquire")
	}

	mustStatus(t, tab, devA, 1, Acquired)
	if got := tab.Holder(devA); got != 1 {
		t.Fatalf("Holder = R%d, want R1", got)
	}
	if got := tab.NextWaiter(devA); got != 1 {
		t.Fatalf("NextWaiter = R%d, want R1", got)
	}
	mustStatus(t, tab, devA, 1, Released)
	if got := tab.Holder(devA); got != routine.None {
		t.Fatalf("Holder after release = R%d, want none", got)
	}
	if got := tab.NextWaiter(devA); got != 2 {
		t.Fatalf("NextWaiter = R%d, want R2", got)
	}
	if !tab.CanAcquire(devA, 2) {
		t.Fatal("R2 should be able to acquire after R1 released")
	}
}

func TestCurrentStateInference(t *testing.T) {
	// The three cases of Fig 8.
	tab := newTestTable()

	// Case (c): no accesses -> committed state.
	if got := tab.CurrentState(devA); got != device.Off {
		t.Fatalf("empty lineage current state = %q, want committed OFF", got)
	}

	// Case (b): right-most Released entry.
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Released, Target: device.Off})
	if got := tab.CurrentState(devA); got != device.Off {
		t.Fatalf("released-only current state = %q, want OFF (right-most released)", got)
	}

	// Case (a): Acquired entry wins.
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Scheduled})
	mustStatus(t, tab, devA, 3, Acquired)
	if err := tab.SetTarget(devA, 3, device.On); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	if got := tab.CurrentState(devA); got != device.On {
		t.Fatalf("acquired current state = %q, want ON", got)
	}

	// An Acquired access that has not executed a command yet (unknown target)
	// should not mask the released history.
	tab2 := newTestTable()
	mustAppend(t, tab2, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab2, devA, Access{Routine: 2, Status: Acquired})
	if got := tab2.CurrentState(devA); got != device.On {
		t.Fatalf("acquired-no-target current state = %q, want ON", got)
	}
}

func TestRollbackTarget(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Acquired, Target: device.Off})

	if got := tab.RollbackTarget(devA, 2); got != device.On {
		t.Fatalf("RollbackTarget(R2) = %q, want ON (previous entry)", got)
	}
	if got := tab.RollbackTarget(devA, 1); got != device.Off {
		t.Fatalf("RollbackTarget(R1) = %q, want committed OFF", got)
	}
	if got := tab.RollbackTarget(devA, 99); got != device.Off {
		t.Fatalf("RollbackTarget(missing) = %q, want committed OFF", got)
	}
}

func TestLastAcquirerWas(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Acquired, Target: device.Off})
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Scheduled})

	if !tab.LastAcquirerWas(devA, 2) {
		t.Fatal("R2 holds the device; it is the last acquirer")
	}
	if tab.LastAcquirerWas(devA, 1) {
		t.Fatal("R1 is not the last acquirer (R2 acquired after it)")
	}
	if tab.LastAcquirerWas(devA, 3) {
		t.Fatal("R3 is only Scheduled; it never acquired the device")
	}
}

func TestRemoveRoutine(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 2, Status: Scheduled})

	removed := tab.RemoveRoutine(1)
	if len(removed) != 2 {
		t.Fatalf("RemoveRoutine removed from %v, want 2 devices", removed)
	}
	if tab.Find(devA, 1) != -1 || tab.Find(devB, 1) != -1 {
		t.Fatal("R1 accesses should be gone")
	}
	if tab.Find(devB, 2) != 0 {
		t.Fatal("R2 access on window should remain and shift to index 0")
	}
}

func TestCompactLastWriterWins(t *testing.T) {
	// Mirrors Fig 7: R3 commits while earlier routines still have accesses on
	// shared devices; their accesses are folded away and the committed state
	// becomes R3's write.
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Released, Target: device.Off})
	mustAppend(t, tab, devB, Access{Routine: 3, Status: Released, Target: device.Closed})
	mustAppend(t, tab, devB, Access{Routine: 4, Status: Scheduled})

	tab.Compact(3, []device.ID{devA, devB})

	if got := tab.Committed(devA); got != device.Off {
		t.Fatalf("committed(%s) = %q, want OFF (R3's write)", devA, got)
	}
	if got := tab.Committed(devB); got != device.Closed {
		t.Fatalf("committed(%s) = %q, want CLOSED", devB, got)
	}
	if len(tab.Lineage(devA).Accesses) != 0 {
		t.Fatalf("devA lineage should be empty after compaction, got %v", tab.Lineage(devA).Accesses)
	}
	if got := len(tab.Lineage(devB).Accesses); got != 1 {
		t.Fatalf("devB lineage should keep only R4, got %d entries", got)
	}
	if got := tab.Lineage(devB).Accesses[0].Routine; got != 4 {
		t.Fatalf("devB lineage should keep R4, got R%d", got)
	}
	// R1's access was folded beneath R3's: R3 is the committed baseline writer.
	for _, d := range []device.ID{devA, devB} {
		if got := tab.LastFolded(d); got != 3 {
			t.Fatalf("LastFolded(%s) = R%d, want R3", d, got)
		}
	}
}

func TestCompactVisitsOnlyGivenDevices(t *testing.T) {
	// The caller names the committing routine's devices; a lineage it leaves
	// out (or one the routine has no access on) is untouched.
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devB, Access{Routine: 2, Status: Released, Target: device.Closed})
	tab.Compact(1, []device.ID{devA, devB})
	if got := tab.Committed(devA); got != device.On {
		t.Fatalf("committed(%s) = %q, want ON", devA, got)
	}
	if got := len(tab.Lineage(devB).Accesses); got != 1 {
		t.Fatalf("devB holds no access of R1 and must keep R2, got %d entries", got)
	}
	if got := tab.LastFolded(devB); got != routine.None {
		t.Fatalf("LastFolded(%s) = R%d, want none", devB, got)
	}
}

func TestCompactKeepsBackingArray(t *testing.T) {
	// Compaction shifts the survivors down in place, so the next placement on
	// the device appends without allocating.
	tab := newTestTable()
	for id := routine.ID(1); id <= 4; id++ {
		mustAppend(t, tab, devA, Access{Routine: id, Status: Released, Target: device.On})
	}
	l := tab.Lineage(devA)
	before := cap(l.Accesses)
	tab.Compact(2, []device.ID{devA})
	if len(l.Accesses) != 2 || l.Accesses[0].Routine != 3 || l.Accesses[1].Routine != 4 {
		t.Fatalf("after compacting R2: %v, want [R3 R4]", l.Accesses)
	}
	if cap(l.Accesses) != before {
		t.Fatalf("capacity %d -> %d: compaction reallocated", before, cap(l.Accesses))
	}
}

func TestCompactWithoutTargetKeepsCommitted(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released})
	tab.Compact(1, []device.ID{devA})
	if got := tab.Committed(devA); got != device.Off {
		t.Fatalf("committed = %q, want original OFF (no target recorded)", got)
	}
}

func TestGapsUnbounded(t *testing.T) {
	tab := newTestTable()
	gaps := tab.Gaps(devA, t0)
	if len(gaps) != 1 {
		t.Fatalf("empty lineage gaps = %v, want a single unbounded gap", gaps)
	}
	if gaps[0].Bounded() || !gaps[0].Start.Equal(t0) || gaps[0].Index != 0 {
		t.Fatalf("unexpected gap %+v", gaps[0])
	}
	if start, ok := gaps[0].Fits(t0.Add(time.Minute), time.Hour); !ok || !start.Equal(t0.Add(time.Minute)) {
		t.Fatalf("unbounded gap should fit anything, got %v %v", start, ok)
	}
}

func TestGapsBetweenAccesses(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled, Start: t0, Duration: 10 * time.Minute})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Scheduled, Start: t0.Add(30 * time.Minute), Duration: 10 * time.Minute})

	gaps := tab.Gaps(devA, t0)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %+v, want 2 (between R1 and R2, and after R2)", gaps)
	}
	mid := gaps[0]
	if mid.Index != 1 {
		t.Fatalf("middle gap index = %d, want 1", mid.Index)
	}
	if !mid.Start.Equal(t0.Add(10*time.Minute)) || !mid.End.Equal(t0.Add(30*time.Minute)) {
		t.Fatalf("middle gap = %+v, want [t0+10m, t0+30m)", mid)
	}
	if _, ok := mid.Fits(t0, 25*time.Minute); ok {
		t.Fatal("25-minute hold must not fit in a 20-minute gap")
	}
	if start, ok := mid.Fits(t0, 15*time.Minute); !ok || !start.Equal(t0.Add(10*time.Minute)) {
		t.Fatalf("15-minute hold should fit starting at gap start, got %v %v", start, ok)
	}
	tail := gaps[1]
	if tail.Bounded() || tail.Index != 2 {
		t.Fatalf("tail gap = %+v, want unbounded at index 2", tail)
	}
}

func TestInvariant2Violation(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Acquired})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Acquired})
	err := tab.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "invariant 2") {
		t.Fatalf("CheckInvariants = %v, want invariant 2 violation", err)
	}
}

func TestInvariant3Violation(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Released})
	err := tab.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "invariant 3") {
		t.Fatalf("CheckInvariants = %v, want invariant 3 violation", err)
	}
}

func TestInvariant4Violation(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 2, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 1, Status: Scheduled})
	err := tab.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "invariant 4") {
		t.Fatalf("CheckInvariants = %v, want invariant 4 violation", err)
	}
}

func TestInvariantsHoldOnWellFormedTable(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Acquired, Target: device.Off})
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 2, Status: Scheduled})
	mustAppend(t, tab, devB, Access{Routine: 3, Status: Scheduled})
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if !strings.Contains(tab.String(), "R2[A]->OFF") {
		t.Fatalf("String() missing acquired entry:\n%s", tab.String())
	}
}

// Property: appending routines in the same relative order to every lineage
// always satisfies the invariants, regardless of which subset of devices each
// routine touches.
func TestPropertyAppendOrderPreservesInvariants(t *testing.T) {
	f := func(masks []uint8) bool {
		if len(masks) > 12 {
			masks = masks[:12]
		}
		devs := []device.ID{devA, devB, devC}
		tab := newTestTable()
		for i, m := range masks {
			rid := routine.ID(i + 1)
			for bit, d := range devs {
				if m&(1<<uint(bit)) == 0 {
					continue
				}
				if _, err := tab.Append(d, Access{Routine: rid, Status: Scheduled}); err != nil {
					return false
				}
			}
		}
		return tab.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CurrentState never invents a state — it is always either the
// committed state or the target of one of the accesses.
func TestPropertyCurrentStateIsKnownValue(t *testing.T) {
	states := []device.State{device.On, device.Off, device.Open, device.Closed}
	f := func(statuses []uint8, targets []uint8) bool {
		tab := newTestTable()
		n := len(statuses)
		if n > 10 {
			n = 10
		}
		valid := map[device.State]bool{device.Off: true} // committed state of devA
		phase := Released
		for i := 0; i < n; i++ {
			st := Status(statuses[i] % 3)
			// Keep invariant 3 satisfied so the table is well-formed.
			if st < phase {
				st = phase
			}
			if st == Acquired && phase == Acquired {
				st = Scheduled
			}
			phase = st
			tgt := states[0]
			if len(targets) > 0 {
				tgt = states[int(targets[i%len(targets)])%len(states)]
			}
			if st == Scheduled {
				tgt = device.StateUnknown
			}
			if _, err := tab.Append(devA, Access{Routine: routine.ID(i + 1), Status: st, Target: tgt}); err != nil {
				return false
			}
			if tgt != device.StateUnknown {
				valid[tgt] = true
			}
		}
		return valid[tab.CurrentState(devA)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustAppend(t *testing.T, tab *Table, d device.ID, a Access) {
	t.Helper()
	if _, err := tab.Append(d, a); err != nil {
		t.Fatalf("Append(%s, %v): %v", d, a, err)
	}
}

func mustStatus(t *testing.T, tab *Table, d device.ID, rid routine.ID, s Status) {
	t.Helper()
	if err := tab.SetStatus(d, rid, s); err != nil {
		t.Fatalf("SetStatus(%s, R%d, %v): %v", d, rid, s, err)
	}
}

// --- allocation-free hot-path helpers ----------------------------------------

func TestPlaceAtMatchesInsertAt(t *testing.T) {
	mk := func() *Table {
		tab := newTestTable()
		mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled, Start: t0, Duration: 10 * time.Minute})
		mustAppend(t, tab, devA, Access{Routine: 2, Status: Scheduled, Start: t0.Add(30 * time.Minute), Duration: 10 * time.Minute})
		return tab
	}
	probe := Access{Routine: 7, Status: Scheduled, Start: t0.Add(15 * time.Minute), Duration: time.Minute}

	for idx := 0; idx <= 2; idx++ {
		a, b := mk(), mk()
		if _, _, err := a.InsertAt(devA, idx, probe); err != nil {
			t.Fatalf("InsertAt(%d): %v", idx, err)
		}
		if err := b.PlaceAt(devA, idx, probe); err != nil {
			t.Fatalf("PlaceAt(%d): %v", idx, err)
		}
		if got, want := b.String(), a.String(); got != want {
			t.Fatalf("PlaceAt(%d) diverged from InsertAt:\n got: %s\nwant: %s", idx, got, want)
		}
	}

	tab := mk()
	if err := tab.PlaceAt(devA, 5, probe); !errors.Is(err, ErrNoSuchSlot) {
		t.Fatalf("out-of-range PlaceAt err = %v, want ErrNoSuchSlot", err)
	}
	if err := tab.PlaceAt(devA, 0, Access{Routine: 1}); !errors.Is(err, ErrHasAccess) {
		t.Fatalf("duplicate PlaceAt err = %v, want ErrHasAccess", err)
	}
	if len(tab.Lineage(devA).Accesses) != 2 {
		t.Fatal("failed PlaceAt mutated the lineage")
	}
}

func TestGapsIntoReusesBuffer(t *testing.T) {
	tab := newTestTable()
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled, Start: t0.Add(10 * time.Minute), Duration: 10 * time.Minute})

	buf := make([]Gap, 0, 8)
	got := tab.GapsInto(buf[:0], devA, t0)
	want := tab.Gaps(devA, t0)
	if len(got) != len(want) {
		t.Fatalf("GapsInto = %+v, Gaps = %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GapsInto[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("GapsInto did not write into the caller's buffer")
	}
	// Appending into a reused buffer must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		buf = tab.GapsInto(buf[:0], devA, t0)
	})
	if allocs != 0 {
		t.Fatalf("GapsInto with reused buffer allocated %v times per run", allocs)
	}
}

func TestTailStart(t *testing.T) {
	tab := newTestTable()
	if got := tab.TailStart(devA, t0); !got.Equal(t0) {
		t.Fatalf("empty lineage TailStart = %v, want %v", got, t0)
	}
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Scheduled, Start: t0, Duration: 10 * time.Minute})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Scheduled, Start: t0.Add(30 * time.Minute), Duration: 10 * time.Minute})
	gaps := tab.Gaps(devA, t0)
	if got, want := tab.TailStart(devA, t0), gaps[len(gaps)-1].Start; !got.Equal(want) {
		t.Fatalf("TailStart = %v, want last gap start %v", got, want)
	}
	late := t0.Add(2 * time.Hour)
	if got := tab.TailStart(devA, late); !got.Equal(late) {
		t.Fatalf("TailStart(from late) = %v, want %v", got, late)
	}
}

func TestAccessRoutinesInto(t *testing.T) {
	accs := []Access{{Routine: 3}, {Routine: 1}, {Routine: 2}}
	got := AccessRoutinesInto(nil, accs)
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("AccessRoutinesInto = %v", got)
	}
	// Appends after existing content.
	got = AccessRoutinesInto([]routine.ID{9}, accs[:1])
	if len(got) != 2 || got[0] != 9 || got[1] != 3 {
		t.Fatalf("AccessRoutinesInto(prefixed) = %v", got)
	}
	if AccessRoutinesInto(nil, nil) != nil {
		t.Fatal("empty input should return nil dst unchanged")
	}
}

func TestCompactBeforeFoldsOldReleasedPrefix(t *testing.T) {
	tab := newTestTable()
	// devA: two old Released accesses, then a live (Acquired) one.
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Released, Target: device.On,
		Start: t0, Duration: time.Minute})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Released, Target: device.Off,
		Start: t0.Add(time.Minute), Duration: time.Minute})
	mustAppend(t, tab, devA, Access{Routine: 3, Status: Acquired, Target: device.On,
		Start: t0.Add(2 * time.Minute), Duration: time.Minute})
	// devB: a Released access too *young* to fold.
	mustAppend(t, tab, devB, Access{Routine: 4, Status: Released, Target: device.Closed,
		Start: t0.Add(time.Hour), Duration: time.Minute})

	horizon := t0.Add(30 * time.Minute)
	if got := tab.CompactBefore(horizon); got != 2 {
		t.Fatalf("CompactBefore removed %d accesses, want 2", got)
	}
	if got := tab.Committed(devA); got != device.Off {
		t.Fatalf("committed(%s) = %q, want OFF (last folded writer wins)", devA, got)
	}
	if got := len(tab.Lineage(devA).Accesses); got != 1 {
		t.Fatalf("devA keeps %d accesses, want 1 (the live one)", got)
	}
	if tab.Lineage(devA).Accesses[0].Routine != 3 {
		t.Fatalf("devA kept %v, want R3", tab.Lineage(devA).Accesses[0])
	}
	if got := len(tab.Lineage(devB).Accesses); got != 1 {
		t.Fatalf("devB lost its young access: %d left, want 1", got)
	}
	// CurrentState is preserved by the fold: the folded writer's target moved
	// into the committed state.
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("invariants after CompactBefore: %v", err)
	}
	// Idempotent: nothing old remains.
	if got := tab.CompactBefore(horizon); got != 0 {
		t.Fatalf("second CompactBefore removed %d, want 0", got)
	}
}

func TestCompactBeforeStopsAtUnreleasedAccess(t *testing.T) {
	tab := newTestTable()
	// An old Acquired access blocks the fold: everything behind it stays,
	// even Released entries, because removal is prefix-only.
	mustAppend(t, tab, devA, Access{Routine: 1, Status: Acquired, Target: device.On,
		Start: t0, Duration: time.Minute})
	mustAppend(t, tab, devA, Access{Routine: 2, Status: Released, Target: device.Off,
		Start: t0.Add(time.Minute), Duration: time.Minute})

	if got := tab.CompactBefore(t0.Add(time.Hour)); got != 0 {
		t.Fatalf("CompactBefore removed %d accesses behind a live one, want 0", got)
	}
	if got := len(tab.Lineage(devA).Accesses); got != 2 {
		t.Fatalf("devA has %d accesses, want 2", got)
	}
	if got := tab.Committed(devA); got != device.Off {
		t.Fatalf("committed(%s) = %q, want untouched OFF", devA, got)
	}
}
