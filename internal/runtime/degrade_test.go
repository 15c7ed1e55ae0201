package runtime

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"safehome/internal/device"
	"safehome/internal/journal"
)

// failingConfig is a journaled runtime whose journal starts failing the given
// operation once armed.
func failingConfig(dir, op string, armed *atomic.Bool) Config {
	cfg := journaledConfig(dir)
	cfg.Journal = journal.Options{
		TestInjectErr: func(got string) error {
			if got == op && armed.Load() {
				return errors.New("injected: device out of space")
			}
			return nil
		},
	}
	return cfg
}

// TestJournalDegradeOnAppendError: when the journal can no longer write, the
// home degrades to memory-only — availability over durability — and keeps
// serving. Everything acknowledged before the degrade recovers; nothing
// after it does (the failed append never reached the disk).
func TestJournalDegradeOnAppendError(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	var armed atomic.Bool
	rt, err := NewSim(o.attach(failingConfig(dir, "append", &armed)), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const durable = 5
	for i := 0; i < durable; i++ {
		if _, err := rt.Submit(benchRoutine("pre", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Durable() {
		t.Fatalf("home not durable before injection: %v", rt.JournalError())
	}
	acked := rt.Results()
	states := rt.CommittedStates()

	armed.Store(true)
	// The home must keep serving through and after the journal failure.
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit(benchRoutine("post", int64(100+i))); err != nil {
			t.Fatalf("submit after journal failure: %v", err)
		}
	}
	if rt.Durable() {
		t.Fatal("home still claims durable after a failed append")
	}
	jerr := rt.JournalError()
	if jerr == nil || !strings.Contains(jerr.Error(), "injected") {
		t.Fatalf("JournalError = %v, want the injected error", jerr)
	}
	if got := len(rt.Results()); got != durable+3 {
		t.Fatalf("degraded home serves %d results, want %d", got, durable+3)
	}
	rt.Crash()
	o.restart()

	armed.Store(false)
	rec, err := NewSim(o.attach(journaledConfig(dir)), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Durable() {
		t.Fatalf("reopened home not durable: %v", rec.JournalError())
	}
	got := rec.Results()
	if len(got) != durable {
		t.Fatalf("recovered %d results, want the %d acknowledged before the degrade", len(got), durable)
	}
	for i, want := range acked {
		if got[i].ID != want.ID || got[i].Status != want.Status {
			t.Fatalf("result %d diverged: %+v vs %+v", want.ID, got[i], want)
		}
	}
	recStates := rec.CommittedStates()
	for d, s := range states {
		if recStates[d] != s {
			t.Fatalf("committed state of %s = %q, want pre-degrade %q", d, recStates[d], s)
		}
	}
}

// TestJournalDegradeOnCommitError: a failed group-commit fsync degrades the
// home the same way. The batch whose sync failed may or may not survive (its
// bytes were written, never synced); anything submitted after the degrade
// must not.
func TestJournalDegradeOnCommitError(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	var armed atomic.Bool
	rt, err := NewSim(o.attach(failingConfig(dir, "commit", &armed)), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const durable = 4
	for i := 0; i < durable; i++ {
		if _, err := rt.Submit(benchRoutine("pre", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	if _, err := rt.Submit(benchRoutine("edge", 50)); err != nil {
		t.Fatalf("submit during failing commit: %v", err)
	}
	if rt.Durable() {
		t.Fatal("home still claims durable after a failed commit")
	}
	if _, err := rt.Submit(benchRoutine("post", 51)); err != nil {
		t.Fatalf("submit after degrade: %v", err)
	}
	rt.Crash()
	o.restart()

	armed.Store(false)
	rec, err := NewSim(o.attach(journaledConfig(dir)), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Results()
	// The edge batch was appended but its sync failed — either outcome is a
	// correct crash story; the post-degrade routine must be gone.
	if len(got) < durable || len(got) > durable+1 {
		t.Fatalf("recovered %d results, want %d or %d", len(got), durable, durable+1)
	}
	for _, res := range got {
		if res.Routine.Name == "post" {
			t.Fatal("routine submitted after the degrade was recovered")
		}
	}
}

// TestJournalDegradeOnCheckpointError: a failing checkpoint write also
// degrades the home, but the already-committed journal segments stay on disk
// — every acknowledged batch before the degrade still recovers.
func TestJournalDegradeOnCheckpointError(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	var armed atomic.Bool
	cfg := failingConfig(dir, "checkpoint", &armed)
	// Checkpoint after every ~1KiB of journal so the injection point is hit
	// mid-workload.
	cfg.Journal.CheckpointBytes = 1 << 10
	rt, err := NewSim(o.attach(cfg), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	const durable = 3
	for i := 0; i < durable; i++ {
		if _, err := rt.Submit(benchRoutine("pre", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	// Enough work to cross the checkpoint threshold and trip the injection.
	i := 0
	for rt.JournalError() == nil && i < 50 {
		if _, err := rt.Submit(benchRoutine("more", int64(200+i))); err != nil {
			t.Fatalf("submit: %v", err)
		}
		i++
	}
	if rt.JournalError() == nil {
		t.Fatal("checkpoint threshold never tripped the injected error")
	}
	if rt.Durable() {
		t.Fatal("home still claims durable after a failed checkpoint")
	}
	ackedBefore := len(rt.Results())
	rt.Crash()
	o.restart()

	armed.Store(false)
	rec, err := NewSim(o.attach(journaledConfig(dir)), device.Plugs(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Results()
	// Every batch acknowledged before the degrade was group-committed to the
	// segments; only work after the degrade (none here) may be missing.
	if len(got) < durable {
		t.Fatalf("recovered %d results, want >= %d", len(got), durable)
	}
	if len(got) > ackedBefore {
		t.Fatalf("recovered %d results, more than the %d ever acknowledged", len(got), ackedBefore)
	}
}
