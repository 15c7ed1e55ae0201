package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// TestFreezeWakeRoundTrip: everything acknowledged before a freeze — results,
// committed states, bank definitions — comes back exactly on wake, and the
// frozen record carries the status fields the manager reports without waking.
func TestFreezeWakeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := Config{ID: "igloo", Model: visibility.EV, DataDir: dir, EventLog: 64}
	rt, err := NewSim(o.attach(cfg), device.Plugs(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := routine.New(fmt.Sprintf("r-%d", i),
			routine.Command{Device: "plug-0", Target: device.On, Duration: time.Second},
			routine.Command{Device: "plug-1", Target: device.Off, Duration: time.Second},
		)
		if _, err := rt.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.StoreRoutine(routine.New("stored", routine.Command{Device: "plug-2", Target: device.On})); err != nil {
		t.Fatal(err)
	}
	before := rt.Results()
	states := rt.CommittedStates()

	fr, err := rt.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if fr.Model != "EV" || fr.Routines != 5 || fr.Accepted != 6 {
		t.Fatalf("frozen record = %+v", fr)
	}
	if !fr.NextFire.IsZero() {
		t.Fatalf("no triggers were armed but NextFire = %v", fr.NextFire)
	}
	head, err := journal.ReadHead(dir, o.writerFor)
	if err != nil || head == nil || head.Frozen == nil {
		t.Fatalf("the final checkpoint's head = %+v, %v; want it frozen", head, err)
	}
	got, _ := json.Marshal(head.Frozen)
	want, _ := json.Marshal(fr)
	if head.Home != "igloo" || !reflect.DeepEqual(head.Devices, device.Plugs(3).All()) || !bytes.Equal(got, want) {
		t.Fatalf("the final checkpoint's head = %+v / %s; froze %s", head, got, want)
	}

	// Wake: recover from checkpoint + tail. It deletes nothing and writes
	// nothing, so until the woken home appends it is still frozen on disk.
	rt2, err := NewSim(o.attach(cfg), device.Plugs(3))
	if err != nil {
		t.Fatalf("wake: %v", err)
	}
	defer rt2.Close()
	after := rt2.Results()
	if len(after) != len(before) {
		t.Fatalf("woke with %d results, froze with %d", len(after), len(before))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].Status != after[i].Status ||
			!before[i].Finished.Equal(after[i].Finished) {
			t.Fatalf("result %d changed across freeze/wake:\n  froze %+v\n  woke  %+v", i, before[i], after[i])
		}
	}
	if got := rt2.CommittedStates(); !reflect.DeepEqual(got, states) {
		t.Fatalf("committed states changed across freeze/wake: froze %v, woke %v", states, got)
	}
	if _, ok := rt2.Bank().Get("stored"); !ok {
		t.Fatal("bank definition lost across freeze/wake")
	}
	if ev, next := rt2.EventsSince(fr.NextSeq); len(ev) != 0 || next != fr.NextSeq {
		t.Fatalf("a poll at the frozen cursor %d found %d events, next %d", fr.NextSeq, len(ev), next)
	}
	if head, err := journal.ReadHead(dir, o.writerFor); err != nil || head.Frozen == nil {
		t.Fatalf("the wake thawed the home on disk before it appended: %+v, %v", head, err)
	}
	if _, err := rt2.Submit(routine.New("after", routine.Command{Device: "plug-0", Target: device.Off})); err != nil {
		t.Fatal(err)
	}
	if head, err := journal.ReadHead(dir, o.writerFor); err != nil || head.Frozen != nil {
		t.Fatalf("the woken home appended but is still frozen on disk: %+v, %v", head, err)
	}
}

// TestFreezeCarriesTriggerDeadline: a scheduled trigger that retires into
// the final checkpoint surfaces its deadline in the frozen record, so the
// manager's deadline heap can wake the home on time; the wake re-arms it.
func TestFreezeCarriesTriggerDeadline(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := Config{ID: "alarm", Model: visibility.EV, DataDir: dir}
	rt, err := NewSim(o.attach(cfg), device.Plugs(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreRoutine(routine.New("wakeup", routine.Command{Device: "plug-0", Target: device.On})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ScheduleAfter("wakeup", time.Hour); err != nil {
		t.Fatal(err)
	}
	deadline := rt.Counts().Now.Add(time.Hour)

	fr, err := rt.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fr.NextFire.IsZero() {
		t.Fatal("frozen record lost the trigger deadline")
	}
	if fr.NextFire.Sub(deadline) > time.Second || deadline.Sub(fr.NextFire) > time.Second {
		t.Fatalf("NextFire = %v, want ~%v", fr.NextFire, deadline)
	}

	rt2, err := NewSim(o.attach(cfg), device.Plugs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if trigs := rt2.Triggers(); len(trigs) != 1 {
		t.Fatalf("woke with %d triggers, want 1 re-armed", len(trigs))
	}
}

// TestFreezeCompactsLineage is the hibernation satellite's regression test:
// the freeze path folds released lock-access history (lineage.CompactBefore
// via opCompactNow, then commit compaction during the drain) before the
// final checkpoint even when horizon compaction is disabled, so a
// freeze/wake cycle bounds lineage size instead of freezing stale history
// into the record. The gate pattern (touch plug-0 briefly, hold plug-1 for
// minutes) grows plug-0's lineage with released accesses of still-live
// routines — exactly the history CompactBefore exists for.
func TestFreezeCompactsLineage(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := Config{
		ID:             "tidy",
		Model:          visibility.EV,
		Clock:          ClockPaced,
		DataDir:        dir,
		HistoryHorizon: -1, // horizon compaction off: only the freeze path may fold
		MailboxDepth:   256,
	}
	rt, err := NewSim(o.attach(cfg), device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	for i := 0; i < n; i++ {
		r := routine.New(fmt.Sprintf("gate-%d", i),
			routine.Command{Device: "plug-0", Target: device.On, Duration: 100 * time.Millisecond},
			routine.Command{Device: "plug-1", Target: device.On, Duration: 5 * time.Minute},
		)
		if _, err := rt.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	// Advance the home 20 minutes: most routines clear plug-0 (access
	// Released) and queue on the plug-1 gate, still alive.
	base := rt.Counts().Now
	for step := 1; step <= 20; step++ {
		rt.PumpIfDue(base.Add(time.Duration(step) * time.Minute))
		resume, err := rt.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		resume()
	}
	grown := dataLineageLen(t, rt)
	if grown < n/2 {
		t.Fatalf("with compaction disabled plug-0 holds %d accesses; the gate scenario should accumulate ~%d", grown, n-4)
	}
	if _, err := rt.Freeze(); err != nil {
		t.Fatal(err)
	}
	// The loop has exited; the quiesced controller is inline-readable.
	frozen := len(rt.ctrl.(tableExposer).Table().Lineage("plug-0").Accesses)
	if frozen > 2 {
		t.Fatalf("freeze left %d lineage accesses (pre-freeze %d); the freeze path must compact", frozen, grown)
	}

	rt2, err := NewSim(o.attach(cfg), device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if woke := len(rt2.ctrl.(tableExposer).Table().Lineage("plug-0").Accesses); woke > 2 {
		t.Fatalf("wake resurrected %d lineage accesses", woke)
	}
	if got := len(rt2.Results()); got != n {
		t.Fatalf("woke with %d results, want %d", got, n)
	}
}

// TestFreezeRequiresDurability: a memory-only home has nothing to wake from,
// so Freeze must refuse rather than silently discard state.
func TestFreezeRequiresDurability(t *testing.T) {
	rt, err := NewSim(Config{ID: "ram", Model: visibility.EV}, device.Plugs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Freeze(); err == nil {
		t.Fatal("froze a memory-only home")
	}
}
