package runtime

import (
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// The routine bank and scheduled triggers are home state just like results
// and device states: StoreRoutine and ScheduleAfter are journaled, so
// automations survive both a crash and a clean restart.

func TestBankSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := journaledConfig(dir)
	rt, err := NewSim(o.attach(cfg), device.Plugs(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreRoutine(plugRoutine("night", device.Off, 0, 1)); err != nil {
		t.Fatalf("StoreRoutine: %v", err)
	}
	if err := rt.StoreRoutine(plugRoutine("morning", device.On, 2)); err != nil {
		t.Fatalf("StoreRoutine: %v", err)
	}
	// Last write per name wins across the crash.
	if err := rt.StoreRoutine(plugRoutine("night", device.Off, 0, 1, 3)); err != nil {
		t.Fatalf("StoreRoutine update: %v", err)
	}
	rt.Crash()
	o.restart()

	rec, err := NewSim(o.attach(cfg), device.Plugs(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	names := rec.Bank().Names()
	if len(names) != 2 {
		t.Fatalf("recovered bank = %v, want [morning night]", names)
	}
	night, ok := rec.Bank().Get("night")
	if !ok || len(night.Commands) != 3 {
		t.Fatalf("recovered night = %+v, %v; want the 3-command update", night, ok)
	}
	// The recovered definition is dispatchable.
	if _, err := rec.Submit(night); err != nil {
		t.Errorf("Submit recovered routine: %v", err)
	}
}

func TestBankSurvivesCleanClose(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	cfg := journaledConfig(dir)
	rt, err := NewSim(o.attach(cfg), device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.StoreRoutine(plugRoutine("movie", device.Off, 0)); err != nil {
		t.Fatal(err)
	}
	rt.Close() // checkpoint path, not tail replay

	rec, err := NewSim(o.attach(cfg), device.Plugs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, ok := rec.Bank().Get("movie"); !ok {
		t.Errorf("bank entry lost across clean close: %v", rec.Bank().Names())
	}
}

func TestScheduledTriggerSurvivesCrashAndFires(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	reg := device.Plugs(2)
	cfg := Config{ID: "trig", Model: visibility.EV, EventLog: 64, DataDir: dir,
		FailureInterval: time.Hour, DefaultShort: time.Millisecond}
	rt, err := NewLive(o.attach(cfg), reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	r := routine.New("lights", routine.Command{Device: "plug-0", Target: device.On})
	if err := rt.StoreRoutine(r); err != nil {
		t.Fatal(err)
	}
	// Scheduled well past the crash: the arm is journaled, the home dies,
	// and the restarted home must still fire it.
	if _, err := rt.ScheduleAfter("lights", 100*time.Millisecond); err != nil {
		t.Fatalf("ScheduleAfter: %v", err)
	}
	rt.Crash()
	o.restart()

	rec, err := NewLive(o.attach(cfg), reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	trigs := rec.Triggers()
	if len(trigs) != 1 || trigs[0].Routine != "lights" {
		t.Fatalf("recovered triggers = %+v, want the pre-crash arm", trigs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if results := rec.Results(); len(results) > 0 &&
			results[0].Status == visibility.StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered trigger never fired its routine")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// One-shot: once fired it is retired, also in the journal.
	fireDeadline := time.Now().Add(5 * time.Second)
	for len(rec.Triggers()) != 0 {
		if time.Now().After(fireDeadline) {
			t.Fatalf("fired one-shot trigger still armed: %+v", rec.Triggers())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFiredTriggerNotRearmedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	o := own(t, dir)
	reg := device.Plugs(2)
	cfg := Config{ID: "trig2", Model: visibility.EV, EventLog: 64, DataDir: dir,
		FailureInterval: time.Hour, DefaultShort: time.Millisecond}
	rt, err := NewLive(o.attach(cfg), reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	r := routine.New("lights", routine.Command{Device: "plug-0", Target: device.On})
	if err := rt.StoreRoutine(r); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ScheduleAfter("lights", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.Results()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("trigger never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for rt.PendingCount() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	rt.Crash()
	o.restart()

	rec, err := NewLive(o.attach(cfg), reg, device.NewFleet(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if trigs := rec.Triggers(); len(trigs) != 0 {
		t.Errorf("fired one-shot trigger re-armed after restart: %+v", trigs)
	}
	// Give any wrongly re-armed firing a moment to show up.
	time.Sleep(20 * time.Millisecond)
	if n := len(rec.Results()); n != 1 {
		t.Errorf("recovered %d results, want exactly the original firing", n)
	}
}
