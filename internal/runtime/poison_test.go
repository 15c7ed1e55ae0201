package runtime

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/visibility"
)

// waitPoisoned polls until the runtime reports poisoned or the deadline
// passes. The panic travels loop → recover → poison on another goroutine,
// so tests must wait for the flag rather than assert it synchronously.
func waitPoisoned(t *testing.T, rt *HomeRuntime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Poisoned() {
		if time.Now().After(deadline) {
			t.Fatal("injected panic never poisoned the home")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicPoisonsHomeAndRecordsError(t *testing.T) {
	rt := newVirtual(t, Config{EventLog: 64}, 4)
	rid, err := rt.Submit(plugRoutine("before", device.On, 0))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	rt.PostTimer(func() { panic("test: injected fault") })
	waitPoisoned(t, rt)

	if perr := rt.PanicError(); perr == nil {
		t.Error("PanicError() = nil after poison")
	} else if !strings.Contains(perr.Error(), "injected fault") {
		t.Errorf("PanicError() = %v, want the injected panic value", perr)
	}
	// Mutations are refused — the loop is gone.
	if _, err := rt.Submit(plugRoutine("after", device.On, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after poison = %v, want ErrClosed", err)
	}
	// Reads still answer, from the last published snapshot: the pre-panic
	// commit is visible even though the loop died.
	res, ok := rt.Result(rid)
	if !ok || res.Status != visibility.StatusCommitted {
		t.Errorf("post-poison Result = %+v, %v; want the pre-panic commit", res, ok)
	}
	if states := rt.DeviceStates(); states["plug-0"] != device.On {
		t.Errorf("post-poison DeviceStates[plug-0] = %q, want ON", states["plug-0"])
	}
}

func TestOnPoisonFiresWithPanicError(t *testing.T) {
	var got atomic.Value
	fired := make(chan struct{})
	rt := newVirtual(t, Config{OnPoison: func(err error) {
		got.Store(err)
		close(fired)
	}}, 2)

	rt.PostTimer(func() { panic("test: supervisor hook") })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnPoison never fired")
	}
	err, _ := got.Load().(error)
	if err == nil || !strings.Contains(err.Error(), "supervisor hook") {
		t.Errorf("OnPoison error = %v, want the panic value", err)
	}
}

func TestPoisonedHomeRebuildsFromJournal(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := journaledConfig(dir)
	rt, err := NewSim(o.attach(cfg), device.Plugs(4))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	rid, err := rt.Submit(plugRoutine("acked", device.On, 0, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rt.PostTimer(func() { panic("test: die, then rise") })
	waitPoisoned(t, rt)
	rt.Close() // idempotent on a poisoned home

	rec, err := NewSim(o.attach(cfg), device.Plugs(4))
	if err != nil {
		t.Fatalf("rebuild from journal: %v", err)
	}
	defer rec.Close()
	if rec.Poisoned() {
		t.Error("rebuilt home still reports poisoned")
	}
	res, ok := rec.Result(rid)
	if !ok || res.Status != visibility.StatusCommitted {
		t.Errorf("rebuilt Result = %+v, %v; want pre-panic commit recovered", res, ok)
	}
	if _, err := rec.Submit(plugRoutine("fresh", device.Off, 2)); err != nil {
		t.Errorf("Submit on rebuilt home: %v", err)
	}
}

func TestPoisonAnswersConcurrentMutations(t *testing.T) {
	// Ops queued behind the poisoned batch must be answered (ErrPoisoned or
	// ErrClosed), never leaked: every submitter goroutine must return.
	rt := newVirtual(t, Config{MailboxDepth: 256}, 4)
	stop := make(chan struct{})
	done := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := rt.Submit(plugRoutine("spin", device.On, 0))
				if errors.Is(err, ErrClosed) || errors.Is(err, ErrPoisoned) {
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	rt.PostTimer(func() { panic("test: poison under load") })
	waitPoisoned(t, rt)

	deadline := time.After(5 * time.Second)
	for g := 0; g < 8; g++ {
		select {
		case <-done:
		case <-deadline:
			close(stop)
			t.Fatal("a submitter never returned after the poison")
		}
	}
	close(stop)
}

// TestPoisonForensicsPersistAndClear: a poisoning panic leaves a forensics
// record — in memory via PoisonRecord() (set before OnPoison fires) and on
// disk as poison.json — carrying the panic message and the goroutine stack,
// so the cause survives the supervisor hiding the symptom. LoadPoisonRecord
// reads it back across a process restart; ClearPoisonRecord retires it.
func TestPoisonForensicsPersistAndClear(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	rt, err := NewSim(o.attach(journaledConfig(dir)), device.Plugs(4))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	rt.PostTimer(func() { panic("test: forensic fault") })
	waitPoisoned(t, rt)
	rt.Close()

	rec := rt.PoisonRecord()
	if rec == nil {
		t.Fatal("PoisonRecord() = nil after poison")
	}
	if !strings.Contains(rec.Message, "forensic fault") {
		t.Errorf("record message = %q, want the panic value", rec.Message)
	}
	if !strings.Contains(rec.Stack, "goroutine") {
		t.Errorf("record stack = %q, want a captured goroutine stack", rec.Stack)
	}
	if rec.Home != "durable" || rec.Time.IsZero() {
		t.Errorf("record identity = home %q time %v", rec.Home, rec.Time)
	}

	// The record survives as poison.json, as a fresh process would see it.
	disk := LoadPoisonRecord(dir)
	if disk == nil {
		t.Fatal("LoadPoisonRecord = nil, want the persisted record")
	}
	if disk.Message != rec.Message || !strings.Contains(disk.Stack, "TestPoisonForensicsPersistAndClear") {
		t.Errorf("persisted record = %+v, want message %q with the faulting frame", disk, rec.Message)
	}

	ClearPoisonRecord(dir)
	if LoadPoisonRecord(dir) != nil {
		t.Error("poison record survived ClearPoisonRecord")
	}
}

// TestNoPoisonRecordWithoutPanic: clean lifecycles leave no forensics.
func TestNoPoisonRecordWithoutPanic(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	rt, err := NewSim(o.attach(journaledConfig(dir)), device.Plugs(4))
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	rt.Close()
	if rt.PoisonRecord() != nil {
		t.Error("clean close left an in-memory poison record")
	}
	if LoadPoisonRecord(dir) != nil {
		t.Error("clean close left a poison.json")
	}
}
