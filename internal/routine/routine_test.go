package routine

import (
	"strings"
	"testing"
	"time"

	"safehome/internal/device"
)

func cooling() *Routine {
	return New("cooling",
		Command{Device: "window", Target: device.Closed},
		Command{Device: "ac", Target: device.On},
	)
}

func breakfast() *Routine {
	return New("breakfast",
		Command{Device: "coffee", Target: device.On, Duration: 4 * time.Minute},
		Command{Device: "coffee", Target: device.Off},
		Command{Device: "pancake", Target: device.On, Duration: 5 * time.Minute},
		Command{Device: "pancake", Target: device.Off},
	)
}

func TestValidate(t *testing.T) {
	reg := device.NewRegistry(
		device.Info{ID: "window", Kind: device.KindWindow},
		device.Info{ID: "ac", Kind: device.KindAC},
	)
	if err := cooling().Validate(reg); err != nil {
		t.Fatalf("valid routine rejected: %v", err)
	}
	cases := []struct {
		name string
		r    *Routine
	}{
		{"nil", nil},
		{"empty name", New("  ", Command{Device: "ac", Target: device.On})},
		{"no commands", New("x")},
		{"empty device", New("x", Command{Target: device.On})},
		{"empty target", New("x", Command{Device: "ac"})},
		{"negative duration", New("x", Command{Device: "ac", Target: device.On, Duration: -1})},
		{"unknown device", New("x", Command{Device: "ghost", Target: device.On})},
		{"unknown condition device", New("x", Command{Device: "ac", Target: device.On,
			Condition: &Condition{Device: "ghost", Equals: device.On}})},
	}
	for _, c := range cases {
		if err := c.r.Validate(reg); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestDevicesAndIndices(t *testing.T) {
	r := breakfast()
	devs := r.Devices()
	if len(devs) != 2 || devs[0] != "coffee" || devs[1] != "pancake" {
		t.Fatalf("Devices = %v", devs)
	}
	if r.FirstIndexOn("coffee") != 0 || r.LastIndexOn("coffee") != 1 {
		t.Fatalf("coffee indices = %d,%d", r.FirstIndexOn("coffee"), r.LastIndexOn("coffee"))
	}
	if r.FirstIndexOn("pancake") != 2 || r.LastIndexOn("pancake") != 3 {
		t.Fatal("pancake indices wrong")
	}
	if r.FirstIndexOn("ghost") != -1 || r.LastIndexOn("ghost") != -1 {
		t.Fatal("missing device should yield -1")
	}
	if !r.Touches("coffee") || r.Touches("ghost") {
		t.Fatal("Touches wrong")
	}
	st, ok := r.LastWriteTo("coffee")
	if !ok || st != device.Off {
		t.Fatalf("LastWriteTo(coffee) = %v, %v", st, ok)
	}
	if _, ok := r.LastWriteTo("ghost"); ok {
		t.Fatal("LastWriteTo of untouched device should be !ok")
	}
}

func TestDurationsAndLong(t *testing.T) {
	r := breakfast()
	ideal := r.IdealDuration(100 * time.Millisecond)
	want := 4*time.Minute + 5*time.Minute + 200*time.Millisecond
	if ideal != want {
		t.Fatalf("IdealDuration = %v, want %v", ideal, want)
	}
	if !r.IsLong(time.Minute) {
		t.Fatal("breakfast should be a long routine at 1m threshold")
	}
	if cooling().IsLong(time.Minute) {
		t.Fatal("cooling should not be long")
	}
	hold := r.HoldEstimate("coffee", 100*time.Millisecond)
	if hold != 4*time.Minute+100*time.Millisecond {
		t.Fatalf("HoldEstimate(coffee) = %v", hold)
	}
	if r.HoldEstimate("ghost", time.Second) != 0 {
		t.Fatal("HoldEstimate of untouched device should be 0")
	}
}

func TestMustCountAndBestEffort(t *testing.T) {
	leave := New("leave-home",
		Command{Device: "lights", Target: device.Off, BestEffort: true},
		Command{Device: "door", Target: device.Locked},
	)
	if leave.MustCount() != 1 {
		t.Fatalf("MustCount = %d", leave.MustCount())
	}
	if leave.Commands[0].Must() {
		t.Fatal("best-effort command should not be must")
	}
	if !leave.Commands[1].Must() {
		t.Fatal("default command should be must")
	}
}

func TestConflicts(t *testing.T) {
	r1 := cooling()
	r2 := New("dryer", Command{Device: "dryer", Target: device.On})
	r3 := New("vent", Command{Device: "window", Target: device.Open})
	if Conflicts(r1, r2) {
		t.Fatal("disjoint routines should not conflict")
	}
	if !Conflicts(r1, r3) {
		t.Fatal("routines sharing window should conflict")
	}
	ds := ConflictDevices(r1, r3)
	if len(ds) != 1 || ds[0] != "window" {
		t.Fatalf("ConflictDevices = %v", ds)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New("guarded",
		Command{Device: "ac", Target: device.On, Condition: &Condition{Device: "window", Equals: device.Closed}},
	)
	cp := r.Clone()
	cp.Commands[0].Target = device.Off
	cp.Commands[0].Condition.Equals = device.Open
	if r.Commands[0].Target != device.On {
		t.Fatal("clone shares command slice with original")
	}
	if r.Commands[0].Condition.Equals != device.Closed {
		t.Fatal("clone shares condition pointer with original")
	}
}

func TestReadDevices(t *testing.T) {
	r := New("guarded",
		Command{Device: "ac", Target: device.On, Condition: &Condition{Device: "window", Equals: device.Closed}},
		Command{Device: "fan", Target: device.On, Condition: &Condition{Device: "window", Equals: device.Closed}},
	)
	rd := r.ReadDevices()
	if len(rd) != 1 || rd[0] != "window" {
		t.Fatalf("ReadDevices = %v", rd)
	}
	if len(cooling().ReadDevices()) != 0 {
		t.Fatal("cooling has no reads")
	}
}

func TestStringRendering(t *testing.T) {
	s := breakfast().String()
	if !strings.Contains(s, "coffee:ON(4m0s)") || !strings.HasPrefix(s, "breakfast{") {
		t.Fatalf("String() = %q", s)
	}
	be := Command{Device: "lights", Target: device.Off, BestEffort: true}.String()
	if !strings.Contains(be, "best-effort") {
		t.Fatalf("best-effort not rendered: %q", be)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig := New("Prepare Breakfast",
		Command{Device: "coffee-maker", Target: device.On, Duration: 4 * time.Minute},
		Command{Device: "toaster", Target: device.On, BestEffort: true},
		Command{Device: "ac", Target: device.On, Condition: &Condition{Device: "window", Equals: device.Closed}},
	)
	orig.User = "alice"
	data, err := MarshalSpec(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v\n%s", err, data)
	}
	if parsed.Name != orig.Name || parsed.User != "alice" {
		t.Fatalf("name/user lost: %+v", parsed)
	}
	if len(parsed.Commands) != 3 {
		t.Fatalf("command count = %d", len(parsed.Commands))
	}
	if parsed.Commands[0].Duration != 4*time.Minute {
		t.Fatalf("duration lost: %v", parsed.Commands[0].Duration)
	}
	if !parsed.Commands[1].BestEffort || parsed.Commands[0].BestEffort {
		t.Fatal("priority lost")
	}
	if parsed.Commands[2].Condition == nil || parsed.Commands[2].Condition.Device != "window" {
		t.Fatal("condition lost")
	}
}

// parseSpecErrorCases are documents ParseSpec must refuse.
var parseSpecErrorCases = map[string]string{
	"bad json":         `{`,
	"missing name":     `{"commands":[{"device":"a","action":"ON"}]}`,
	"no commands":      `{"routine_name":"x","commands":[]}`,
	"missing device":   `{"routine_name":"x","commands":[{"action":"ON"}]}`,
	"missing action":   `{"routine_name":"x","commands":[{"device":"a"}]}`,
	"unknown priority": `{"routine_name":"x","commands":[{"device":"a","action":"ON","priority":"urgent"}]}`,
	// 584 years: time.Duration(ms) * time.Millisecond wraps to 448.384µs.
	"duration overflows": `{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":18446744073710}]}`,
	"negative duration":  `{"routine_name":"x","commands":[{"device":"a","action":"ON","duration_ms":-1}]}`,
}

func TestParseSpecErrors(t *testing.T) {
	for name, doc := range parseSpecErrorCases {
		_, err := ParseSpec([]byte(doc))
		if err == nil {
			t.Errorf("%s: expected parse error", name)
		} else if !strings.HasPrefix(err.Error(), "routine: ") {
			t.Errorf("%s: error %q lacks the routine: prefix", name, err)
		}
	}
}

func TestParseSpecPrioritySynonyms(t *testing.T) {
	doc := `{"routine_name":"x","commands":[
		{"device":"a","action":"ON","priority":"optional"},
		{"device":"b","action":"ON","priority":"required"},
		{"device":"c","action":"ON"}]}`
	r, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Commands[0].BestEffort || r.Commands[1].BestEffort || r.Commands[2].BestEffort {
		t.Fatalf("priority synonyms mis-parsed: %+v", r.Commands)
	}
}

func TestMarshalSpecNil(t *testing.T) {
	if _, err := MarshalSpec(nil); err == nil {
		t.Fatal("expected error for nil routine")
	}
}

func TestBank(t *testing.T) {
	b := NewBank()
	if err := b.Store(cooling()); err != nil {
		t.Fatal(err)
	}
	if err := b.Store(breakfast()); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	got, ok := b.Get("COOLING") // case-insensitive
	if !ok || got.Name != "cooling" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Mutating the returned copy must not affect the stored definition.
	got.Commands[0].Target = device.Open
	again, _ := b.Get("cooling")
	if again.Commands[0].Target != device.Closed {
		t.Fatal("bank returned aliased routine")
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "cooling" {
		t.Fatalf("Names = %v", names)
	}
	b.Delete("cooling")
	if _, ok := b.Get("cooling"); ok {
		t.Fatal("deleted routine still present")
	}
	b.Delete("cooling") // idempotent
	if b.Len() != 1 {
		t.Fatalf("Len after delete = %d", b.Len())
	}
	if err := b.Store(New("bad")); err == nil {
		t.Fatal("storing invalid routine should fail")
	}
}
