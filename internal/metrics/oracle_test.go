package metrics

// Differential test: the Observe this package shipped before the per-device
// rewrite — a scan of every active routine per executed command, over maps
// that were never pruned — kept as the reference, against Recorder on the
// event streams real controllers produce for generated workloads.

import (
	"fmt"
	"reflect"
	"testing"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/sim"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// referenceRecorder is the old Recorder's event half.
type referenceRecorder struct {
	active   map[routine.ID]bool
	modified map[routine.ID]map[device.ID]bool
	tempInc  map[routine.ID]bool

	parallelismSamples []float64
}

func newReferenceRecorder() *referenceRecorder {
	return &referenceRecorder{
		active:   make(map[routine.ID]bool),
		modified: make(map[routine.ID]map[device.ID]bool),
		tempInc:  make(map[routine.ID]bool),
	}
}

func (r *referenceRecorder) Observe(e visibility.Event) {
	switch e.Kind {
	case visibility.EvStarted:
		r.active[e.Routine] = true
		r.sampleParallelism()
	case visibility.EvCommitted, visibility.EvAborted:
		delete(r.active, e.Routine)
		r.sampleParallelism()
	case visibility.EvCommandExecuted:
		for other := range r.active {
			if other == e.Routine {
				continue
			}
			if r.modified[other][e.Device] {
				r.tempInc[other] = true
			}
		}
		if r.modified[e.Routine] == nil {
			r.modified[e.Routine] = make(map[device.ID]bool)
		}
		r.modified[e.Routine][e.Device] = true
	}
}

func (r *referenceRecorder) sampleParallelism() {
	r.parallelismSamples = append(r.parallelismSamples, float64(len(r.active)))
}

// runTrial drives one generated workload through a controller with both
// recorders listening, and returns them with the controller's results.
func runTrial(spec workload.Spec, opts visibility.Options) (*Recorder, *referenceRecorder, []visibility.Result) {
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(spec.Registry())
	rec, ref := NewRecorder(opts.DefaultShort), newReferenceRecorder()
	opts.Observer = func(e visibility.Event) {
		rec.Observe(e)
		ref.Observe(e)
	}
	ctrl := visibility.New(visibility.NewSimEnv(s, fleet), fleet.Snapshot(), opts)
	for _, sub := range spec.Submissions {
		r := sub.Routine
		s.Post(sub.At, func() { ctrl.Submit(r) })
	}
	for _, f := range spec.Failures {
		s.Post(f.At, func() {
			if f.Restart {
				_ = fleet.Restore(f.Device) // the generator only names registered devices
				ctrl.NotifyRestart(f.Device)
			} else {
				_ = fleet.Fail(f.Device)
				ctrl.NotifyFailure(f.Device)
			}
		})
	}
	s.Run()
	return rec, ref, ctrl.Results()
}

func TestRecorderMatchesReferenceOnGeneratedWorkloads(t *testing.T) {
	type config struct {
		name string
		opts visibility.Options
	}
	var configs []config
	for _, k := range []visibility.SchedulerKind{visibility.SchedTL, visibility.SchedFCFS, visibility.SchedJiT} {
		o := visibility.DefaultOptions(visibility.EV)
		o.Scheduler = k
		configs = append(configs, config{"EV/" + k.String(), o})
	}
	// The models without EV's isolation are where temporary incongruence
	// actually happens; the metric must not change there either.
	for _, m := range []visibility.Model{visibility.WV, visibility.PSV, visibility.GSV} {
		configs = append(configs, config{m.String(), visibility.DefaultOptions(m)})
	}

	disturbed := 0
	for seed := int64(1); seed <= 12; seed++ {
		p := workload.GenParams{Devices: 12, Routines: 120, Seed: seed}
		if seed%3 == 0 { // aborts too: some devices fail, some of those come back
			p.FailedPct, p.RestartPct = 25, 50
		}
		spec := workload.Generate(p)
		for _, cfg := range configs {
			rec, ref, results := runTrial(spec, cfg.opts)
			rep := rec.Finalize(cfg.opts.Model, cfg.opts.Scheduler, results, nil)

			want := 0
			for _, res := range results {
				if ref.tempInc[res.ID] {
					want++
				}
			}
			name := fmt.Sprintf("%s under %s", spec.Name, cfg.name)
			if rep.TempIncongruent != want {
				t.Errorf("%s: TempIncongruent = %d, reference %d", name, rep.TempIncongruent, want)
			}
			if !reflect.DeepEqual(rec.tempInc, ref.tempInc) {
				t.Errorf("%s: disturbed routines %v, reference %v", name, rec.tempInc, ref.tempInc)
			}
			if !reflect.DeepEqual(rep.ParallelismSamples, ref.parallelismSamples) {
				t.Errorf("%s: ParallelismSamples differ from the reference (%d vs %d samples)",
					name, len(rep.ParallelismSamples), len(ref.parallelismSamples))
			}
			disturbed += want

			// Every routine finished, so nothing may be left behind — where
			// the reference still holds an inner map per routine ever run.
			if len(rec.running) != 0 {
				t.Errorf("%s: %d routines still tracked after the run", name, len(rec.running))
			}
			for d, ids := range rec.modifiers {
				if len(ids) != 0 {
					t.Errorf("%s: device %s still lists modifiers %v after the run", name, d, ids)
				}
			}
			if len(ref.modified) <= len(rec.spare) {
				t.Errorf("%s: recorder keeps %d routine records, reference %d — expected far fewer",
					name, len(rec.spare), len(ref.modified))
			}
		}
	}
	if disturbed == 0 {
		t.Fatal("no trial produced a temporary incongruence: the comparison is vacuous")
	}
}
