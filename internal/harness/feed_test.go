package harness

import (
	"reflect"
	"testing"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// closureFeed is the oracle for RunWith's submission feeder: the trial as it
// ran with one closure per submission, each posted at its own At. It returns
// the controller's event stream and results.
func closureFeed(spec workload.Spec, opts visibility.Options) ([]visibility.Event, []visibility.Result) {
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(spec.Registry())
	env := visibility.NewSimEnv(s, fleet)
	var events []visibility.Event
	opts.Observer = func(e visibility.Event) { events = append(events, e) }
	ctrl := visibility.New(env, fleet.Snapshot(), opts)
	for _, sub := range spec.Submissions {
		r := sub.Routine
		s.Post(sub.At, func() { ctrl.Submit(r) })
	}
	for _, f := range spec.Failures {
		f := f
		s.Post(f.At, func() {
			if f.Restart {
				_ = fleet.Restore(f.Device)
				ctrl.NotifyRestart(f.Device)
			} else {
				_ = fleet.Fail(f.Device)
				ctrl.NotifyFailure(f.Device)
			}
		})
	}
	s.Run()
	return events, ctrl.Results()
}

// tiedSpec submits out of At order, with ties (a negative At ties with 0),
// and fails and restores a device at instants submissions also use.
func tiedSpec() workload.Spec {
	cmd := func(d device.ID, st device.State) routine.Command {
		return routine.Command{Device: d, Target: st, Duration: 20 * time.Millisecond}
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return workload.Spec{
		Name: "tied",
		Devices: []device.Info{
			{ID: "a", Kind: device.KindPlug, Initial: device.Off},
			{ID: "b", Kind: device.KindPlug, Initial: device.Off},
			{ID: "c", Kind: device.KindPlug, Initial: device.Off},
		},
		Submissions: []workload.Submission{
			{At: ms(30), Routine: routine.New("r1", cmd("a", device.On), cmd("b", device.On))},
			{At: ms(10), Routine: routine.New("r2", cmd("b", device.Off))},
			{At: 0, Routine: routine.New("r3", cmd("c", device.On), cmd("a", device.Off))},
			{At: -ms(5), Routine: routine.New("r4", cmd("a", device.On))},
			{At: ms(10), Routine: routine.New("r5", cmd("b", device.On), cmd("c", device.Off))},
			{At: ms(30), Routine: routine.New("r6", cmd("c", device.On))},
			{At: ms(10), Routine: routine.New("r7", cmd("a", device.Off), cmd("b", device.Off))},
		},
		Failures: []workload.FailureEvent{
			{At: ms(10), Device: "b"},
			{At: ms(30), Device: "b", Restart: true},
		},
	}
}

// TestFeederMatchesClosurePerSubmission: the feeder must reproduce the
// closure-per-submission trial exactly — the same routine IDs for the same
// routines, and the same events at the same instants in the same order —
// across ties between submissions and between a submission and a failure.
func TestFeederMatchesClosurePerSubmission(t *testing.T) {
	gen := workload.Generate(workload.GenParams{Devices: 40, Routines: 400, Seed: 7})
	// The same home with its submissions in reverse and bunched onto a few
	// instants, so hundreds of them tie.
	bunched := gen
	bunched.Name += "-bunched"
	bunched.Submissions = append([]workload.Submission(nil), gen.Submissions...)
	last := gen.Submissions[len(gen.Submissions)-1].At
	for i := range bunched.Submissions {
		sub := &bunched.Submissions[i]
		sub.At = (last - sub.At).Truncate(5*time.Second) - time.Second
	}
	specs := []workload.Spec{tiedSpec(), gen, bunched}
	for _, spec := range specs {
		for _, m := range visibility.Models {
			opts := visibility.DefaultOptions(m)
			wantEvents, wantResults := closureFeed(spec, opts)
			var gotEvents []visibility.Event
			opts.Observer = func(e visibility.Event) { gotEvents = append(gotEvents, e) }
			tr := Run(spec, opts, 1)
			if len(wantResults) != len(spec.Submissions) || len(wantEvents) == 0 {
				t.Fatalf("%s/%v: the oracle ran %d of %d routines", spec.Name, m, len(wantResults), len(spec.Submissions))
			}
			if !reflect.DeepEqual(tr.Results, wantResults) {
				t.Fatalf("%s/%v: results differ from one closure per submission", spec.Name, m)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				for i := range min(len(gotEvents), len(wantEvents)) {
					if gotEvents[i] != wantEvents[i] {
						t.Fatalf("%s/%v: event %d is %+v, want %+v", spec.Name, m, i, gotEvents[i], wantEvents[i])
					}
				}
				t.Fatalf("%s/%v: %d events, want %d", spec.Name, m, len(gotEvents), len(wantEvents))
			}
		}
	}
}

// TestTrialAllocsPerRoutine holds paper_trace's trial to its allocation
// budget: a generated 400-routine / 40-device home under EV, metrics and
// oracles included, in at most 8.0 heap objects per routine.
func TestTrialAllocsPerRoutine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under the race detector")
	}
	const routines = 400
	spec := workload.Generate(workload.GenParams{Devices: 40, Routines: routines, Seed: 1})
	opts := visibility.DefaultOptions(visibility.EV)
	per := testing.AllocsPerRun(5, func() { Run(spec, opts, 1) }) / routines
	t.Logf("%.2f allocs per routine", per)
	if per > 8.0 {
		t.Fatalf("a trial costs %.2f allocs per routine, want at most 8.0", per)
	}
}
