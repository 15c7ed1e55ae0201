// Package harness wires a workload specification, a simulated device fleet,
// a visibility-model controller and a metrics recorder into a single
// deterministic trial, and aggregates many trials into the statistics the
// paper's figures report.
package harness

import (
	"cmp"
	"slices"
	"time"

	"safehome/internal/congruence"
	"safehome/internal/device"
	"safehome/internal/metrics"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/sim"
	"safehome/internal/stats"
	"safehome/internal/visibility"
	"safehome/internal/workload"
)

// TrialResult is the outcome of one simulated run.
type TrialResult struct {
	Report   metrics.Report
	Results  []visibility.Result
	EndState map[device.ID]device.State
	// Serialization is the serially-equivalent order the controller claims
	// for the run (committed routines plus failure/restart events).
	Serialization []order.Node
	// Elapsed is the virtual time between the first submission and the last
	// processed event.
	Elapsed time.Duration
	// Events is the number of simulator events processed (a proxy for work).
	Events int
}

// ControllerFactory builds the controller a trial runs. The production
// factory wraps visibility.New; tests substitute deliberately broken
// controllers to prove the oracles catch them.
type ControllerFactory func(env *visibility.SimEnv, initial map[device.ID]device.State, opts visibility.Options) visibility.Controller

// Run executes one trial of the workload under the given controller options.
// The seed only affects per-command latency jitter (when the spec requests
// it); workload content randomness lives in the workload generators.
func Run(spec workload.Spec, opts visibility.Options, seed int64) TrialResult {
	return RunWith(spec, opts, seed, nil)
}

// RunWith is Run with an explicit controller factory (nil means the real
// visibility controllers).
func RunWith(spec workload.Spec, opts visibility.Options, seed int64, factory ControllerFactory) TrialResult {
	s := sim.NewAtEpoch()
	fleet := device.NewFleet(spec.Registry())
	env := visibility.NewSimEnv(s, fleet)
	if spec.JitterMax > 0 {
		rng := stats.NewRNG(seed)
		env.Jitter = func() time.Duration { return rng.UniformDuration(0, spec.JitterMax) }
	}

	rec := metrics.NewRecorder(opts.DefaultShort)
	prev := opts.Observer
	opts.Observer = func(e visibility.Event) {
		rec.Observe(e)
		if prev != nil {
			prev(e)
		}
	}

	initial := fleet.Snapshot()
	var ctrl visibility.Controller
	if factory != nil {
		ctrl = factory(env, initial, opts)
	} else {
		ctrl = visibility.New(env, initial, opts)
	}

	feed := newFeeder(ctrl, spec.Submissions)
	for _, sub := range spec.Submissions {
		s.Complete(sub.At, feed, nil)
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

	start := s.Now()
	events := s.Run()

	results := ctrl.Results()
	serial := ctrl.Serialization()
	rep := rec.Finalize(opts.Model, opts.Scheduler, results, serial)

	committed := make([]*routine.Routine, 0, rep.Committed)
	for _, res := range results {
		if res.Status == visibility.StatusCommitted {
			committed = append(committed, res.Routine)
		}
	}
	end := fleet.Snapshot()
	rep.FinalCongruent = congruence.Check(initial, congruence.FromRoutines(committed), end).Congruent

	return TrialResult{
		Report:        rep,
		Results:       results,
		EndState:      end,
		Serialization: serial,
		Elapsed:       s.Now().Sub(start),
		Events:        events,
	}
}

// feeder submits a trial's routines without a closure per submission. The
// trial posts one feeder event per submission, in spec order, so each event
// keeps the sequence number a per-submission closure had; the simulator fires
// them by (instant, sequence), which is the stable order by (max(At, 0),
// index). The feeder therefore submits, at its k-th event, the k-th
// submission of that order.
type feeder struct {
	ctrl  visibility.Controller
	subs  []workload.Submission
	order []int // indexes into subs, in firing order
	next  int
}

func newFeeder(ctrl visibility.Controller, subs []workload.Submission) *feeder {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	at := func(i int) time.Duration { return max(subs[i].At, 0) }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
	return &feeder{ctrl: ctrl, subs: subs, order: order}
}

// CommandDone implements sim.Completion: the next submission is due.
func (f *feeder) CommandDone(error) {
	f.ctrl.Submit(f.subs[f.order[f.next]].Routine)
	f.next++
}

// Generator produces a (possibly randomized) workload for a trial seed.
type Generator func(seed int64) workload.Spec

// Fixed adapts a constant spec into a Generator.
func Fixed(spec workload.Spec) Generator {
	return func(int64) workload.Spec { return spec }
}

// RunTrials executes `trials` independent runs (seeds baseSeed, baseSeed+1,
// ...) and merges their reports.
func RunTrials(gen Generator, opts visibility.Options, trials int, baseSeed int64) metrics.Aggregate {
	if trials <= 0 {
		trials = 1
	}
	reports := make([]metrics.Report, 0, trials)
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		res := Run(gen(seed), opts, seed)
		reports = append(reports, res.Report)
	}
	return metrics.Merge(reports)
}

// Config pairs a human-readable label with controller options; experiments
// sweep over configs.
type Config struct {
	Label   string
	Options visibility.Options
}

// StandardConfigs returns the four models the paper's scenario experiments
// compare (Fig 12): WV, GSV, PSV and EV with Timeline scheduling.
func StandardConfigs() []Config {
	return []Config{
		{Label: "WV", Options: visibility.DefaultOptions(visibility.WV)},
		{Label: "GSV", Options: visibility.DefaultOptions(visibility.GSV)},
		{Label: "PSV", Options: visibility.DefaultOptions(visibility.PSV)},
		{Label: "EV", Options: visibility.DefaultOptions(visibility.EV)},
	}
}

// FailureConfigs returns the models compared in the failure experiments
// (Fig 13): GSV, S-GSV, PSV and EV.
func FailureConfigs() []Config {
	return []Config{
		{Label: "GSV", Options: visibility.DefaultOptions(visibility.GSV)},
		{Label: "S-GSV", Options: visibility.DefaultOptions(visibility.SGSV)},
		{Label: "PSV", Options: visibility.DefaultOptions(visibility.PSV)},
		{Label: "EV", Options: visibility.DefaultOptions(visibility.EV)},
	}
}

// SchedulerConfigs returns EV under each scheduling policy (Fig 14).
func SchedulerConfigs() []Config {
	mk := func(k visibility.SchedulerKind) visibility.Options {
		o := visibility.DefaultOptions(visibility.EV)
		o.Scheduler = k
		return o
	}
	return []Config{
		{Label: "FCFS", Options: mk(visibility.SchedFCFS)},
		{Label: "JiT", Options: mk(visibility.SchedJiT)},
		{Label: "TL", Options: mk(visibility.SchedTL)},
	}
}

// LeaseConfigs returns the lease-ablation configurations of Fig 15a/b: both
// leases on, pre-lease off, post-lease off, both off — all under EV/TL.
func LeaseConfigs() []Config {
	mk := func(pre, post bool) visibility.Options {
		o := visibility.DefaultOptions(visibility.EV)
		o.PreLease = pre
		o.PostLease = post
		return o
	}
	return []Config{
		{Label: "Both-on", Options: mk(true, true)},
		{Label: "Pre-off", Options: mk(false, true)},
		{Label: "Post-off", Options: mk(true, false)},
		{Label: "Both-off", Options: mk(false, false)},
	}
}

// Compare runs every config for the same generator and returns the aggregates
// in config order.
func Compare(gen Generator, configs []Config, trials int, baseSeed int64) []metrics.Aggregate {
	out := make([]metrics.Aggregate, 0, len(configs))
	for _, cfg := range configs {
		out = append(out, RunTrials(gen, cfg.Options, trials, baseSeed))
	}
	return out
}
