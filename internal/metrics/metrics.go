// Package metrics implements the human-facing evaluation metrics of §7.1 of
// the paper: end-to-end latency, temporary incongruence, final incongruence,
// parallelism level, abort rate, rollback overhead, stretch factor, and order
// mismatch. A Recorder consumes controller events during a run; Finalize
// combines them with the per-routine results into a Report; Aggregate merges
// reports across trials.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"safehome/internal/device"
	"safehome/internal/order"
	"safehome/internal/routine"
	"safehome/internal/stats"
	"safehome/internal/visibility"
)

// Recorder observes controller events during one run. It is not safe for
// concurrent use; in simulation runs everything is single-threaded, and the
// live hub serializes observers with the controller.
//
// Its per-routine bookkeeping is bounded by what is running: a routine's
// modified devices are dropped when it commits or aborts, and its record is
// reused by the next routine to start. Its samples are not: every routine
// adds two parallelism samples (its start and its finish) and every routine
// that suffered a temporary incongruence an entry in tempInc, all kept for
// Finalize. A recorder therefore grows with the routines it has observed;
// it is sized for one trial, not for an unbounded soak.
type Recorder struct {
	// DefaultShort is the assumed duration of zero-duration commands, used to
	// compute ideal routine run times (must match the controller's option).
	DefaultShort time.Duration

	// running holds every started, unfinished routine with the devices it
	// has modified so far; modifiers is the same relation by device — the
	// running routines that modified it — which is all a command needs to
	// look at to find whom it disturbs.
	running   map[routine.ID]*modified
	modifiers map[device.ID][]routine.ID
	tempInc   map[routine.ID]bool
	spare     []*modified // finished routines' records, for reuse

	parallelismSamples []float64
	events             int
}

// modified lists the devices one running routine has modified.
type modified struct{ devs []device.ID }

// NewRecorder returns a recorder using the given default short-command
// duration for ideal-time computations.
func NewRecorder(defaultShort time.Duration) *Recorder {
	if defaultShort <= 0 {
		defaultShort = visibility.DefaultShortCommand
	}
	return &Recorder{
		DefaultShort: defaultShort,
		running:      make(map[routine.ID]*modified),
		modifiers:    make(map[device.ID][]routine.ID),
		tempInc:      make(map[routine.ID]bool),
	}
}

// Observe implements visibility.Observer. A routine's commands arrive
// between its EvStarted and its EvCommitted/EvAborted.
func (r *Recorder) Observe(e visibility.Event) {
	r.events++
	switch e.Kind {
	case visibility.EvStarted:
		var m *modified
		if n := len(r.spare); n > 0 {
			m, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			m = &modified{}
		}
		r.running[e.Routine] = m
		r.sampleParallelism()
	case visibility.EvCommitted, visibility.EvAborted:
		if m, ok := r.running[e.Routine]; ok { // else it aborted before starting
			for _, d := range m.devs {
				ids := r.modifiers[d]
				i := slices.Index(ids, e.Routine)
				ids[i] = ids[len(ids)-1]
				r.modifiers[d] = ids[:len(ids)-1]
			}
			m.devs = m.devs[:0]
			r.spare = append(r.spare, m)
			delete(r.running, e.Routine)
		}
		r.sampleParallelism()
	case visibility.EvCommandExecuted:
		// Temporary incongruence (§7.1): another active routine already
		// modified this device and has not finished yet — it now observes a
		// state it did not set.
		ids := r.modifiers[e.Device]
		listed := false
		for _, other := range ids {
			if other == e.Routine {
				listed = true
			} else {
				r.tempInc[other] = true
			}
		}
		if m := r.running[e.Routine]; m != nil && !listed {
			m.devs = append(m.devs, e.Device)
			r.modifiers[e.Device] = append(ids, e.Routine)
		}
	}
}

func (r *Recorder) sampleParallelism() {
	r.parallelismSamples = append(r.parallelismSamples, float64(len(r.running)))
}

// Events returns the number of events observed (useful in tests).
func (r *Recorder) Events() int { return r.events }

// Report is the set of per-run metrics for one trial.
type Report struct {
	Model     visibility.Model
	Scheduler visibility.SchedulerKind

	Routines  int
	Committed int
	Aborted   int

	// Latencies of committed routines (submission → completion).
	Latencies []time.Duration
	// NormalizedLatencies divide each committed routine's latency by its
	// ideal (no-wait) run time — the normalization of Figs 14a/15a.
	NormalizedLatencies []float64
	// StretchFactors divide each committed routine's actual start→finish time
	// by its ideal run time (Fig 15c).
	StretchFactors []float64

	// TempIncongruent counts routines that suffered at least one temporary
	// incongruence event; TempIncongruence is the fraction over all routines.
	TempIncongruent  int
	TempIncongruence float64

	// ParallelismSamples are the active-routine counts measured at every
	// routine start/finish point; Parallelism is their mean.
	ParallelismSamples []float64
	Parallelism        float64

	// AbortRate is Aborted / Routines.
	AbortRate float64
	// RollbackOverhead is the mean, over aborted routines, of the fraction of
	// their executed commands that were rolled back (§7.4).
	RollbackOverhead float64

	// OrderMismatch is the normalized swap distance between submission order
	// and the final serialization order of committed routines (§7.6).
	OrderMismatch float64

	// FinalCongruent reports whether the end state of the home was serially
	// equivalent to some order of the committed routines (set by the harness,
	// which has access to the device fleet's ground truth).
	FinalCongruent bool
}

// Finalize combines the recorder's observations with the controller's
// per-routine results and serialization order into a Report.
func (r *Recorder) Finalize(model visibility.Model, sched visibility.SchedulerKind,
	results []visibility.Result, serialization []order.Node) Report {

	rep := Report{
		Model:              model,
		Scheduler:          sched,
		Routines:           len(results),
		ParallelismSamples: slices.Clone(r.parallelismSamples),
		FinalCongruent:     true,
		// Sized for the common case, every routine committing, so a trial's
		// report is built without regrowing anything.
		Latencies:           make([]time.Duration, 0, len(results)),
		NormalizedLatencies: make([]float64, 0, len(results)),
		StretchFactors:      make([]float64, 0, len(results)),
	}

	var rollbackFractions []float64
	submissionOrder := make([]routine.ID, 0, len(results))
	serialOrder := make([]routine.ID, 0, len(serialization))

	for _, res := range results {
		switch res.Status {
		case visibility.StatusCommitted:
			rep.Committed++
			ideal := res.Routine.IdealDuration(r.DefaultShort)
			rep.Latencies = append(rep.Latencies, res.Latency())
			if ideal > 0 {
				rep.NormalizedLatencies = append(rep.NormalizedLatencies,
					float64(res.Latency())/float64(ideal))
				rep.StretchFactors = append(rep.StretchFactors,
					float64(res.RunTime())/float64(ideal))
			}
			submissionOrder = append(submissionOrder, res.ID)
		case visibility.StatusAborted:
			rep.Aborted++
			if res.Executed > 0 {
				// An in-flight command that actuated before the abort can make
				// RolledBack exceed Executed by one; clamp to "everything was
				// rolled back" so the overhead stays a fraction.
				frac := float64(res.RolledBack) / float64(res.Executed)
				if frac > 1 {
					frac = 1
				}
				rollbackFractions = append(rollbackFractions, frac)
			} else {
				rollbackFractions = append(rollbackFractions, 0)
			}
		}
		if r.tempInc[res.ID] {
			rep.TempIncongruent++
		}
	}

	for _, n := range serialization {
		if n.Kind == order.KindRoutine {
			serialOrder = append(serialOrder, n.Routine)
		}
	}

	if rep.Routines > 0 {
		rep.TempIncongruence = float64(rep.TempIncongruent) / float64(rep.Routines)
		rep.AbortRate = float64(rep.Aborted) / float64(rep.Routines)
	}
	rep.Parallelism = stats.Mean(rep.ParallelismSamples)
	rep.RollbackOverhead = stats.Mean(rollbackFractions)
	rep.OrderMismatch = order.OrderMismatch(submissionOrder, serialOrder)
	return rep
}

// --- aggregation across trials ------------------------------------------------

// Aggregate is the merge of many per-trial Reports for one configuration.
type Aggregate struct {
	Model     visibility.Model
	Scheduler visibility.SchedulerKind
	Trials    int

	Routines  int
	Committed int
	Aborted   int

	// Latency (milliseconds) and normalized latency summaries over all
	// committed routines of all trials.
	LatencyMS         stats.Summary
	NormalizedLatency stats.Summary
	Stretch           stats.Summary
	Parallelism       stats.Summary

	// Per-trial metric summaries.
	TempIncongruence stats.Summary
	AbortRate        stats.Summary
	RollbackOverhead stats.Summary
	OrderMismatch    stats.Summary

	// FinalIncongruence is the fraction of trials whose end state was not
	// serially equivalent (Fig 12b).
	FinalIncongruence float64

	// StretchValues retains the raw per-routine stretch factors so callers can
	// build CDFs (Fig 15c).
	StretchValues []float64
}

// Merge aggregates per-trial reports. All reports should come from the same
// configuration (model + scheduler); the first report's identity is used.
func Merge(reports []Report) Aggregate {
	agg := Aggregate{Trials: len(reports)}
	if len(reports) == 0 {
		return agg
	}
	agg.Model = reports[0].Model
	agg.Scheduler = reports[0].Scheduler

	var latencies, normLat, stretch, par []float64
	var tempInc, abortRate, rollback, mismatch []float64
	incongruentTrials := 0
	for _, rep := range reports {
		agg.Routines += rep.Routines
		agg.Committed += rep.Committed
		agg.Aborted += rep.Aborted
		for _, l := range rep.Latencies {
			latencies = append(latencies, float64(l)/float64(time.Millisecond))
		}
		normLat = append(normLat, rep.NormalizedLatencies...)
		stretch = append(stretch, rep.StretchFactors...)
		par = append(par, rep.ParallelismSamples...)
		tempInc = append(tempInc, rep.TempIncongruence)
		abortRate = append(abortRate, rep.AbortRate)
		rollback = append(rollback, rep.RollbackOverhead)
		mismatch = append(mismatch, rep.OrderMismatch)
		if !rep.FinalCongruent {
			incongruentTrials++
		}
	}
	agg.LatencyMS = stats.Summarize(latencies)
	agg.NormalizedLatency = stats.Summarize(normLat)
	agg.Stretch = stats.Summarize(stretch)
	agg.Parallelism = stats.Summarize(par)
	agg.TempIncongruence = stats.Summarize(tempInc)
	agg.AbortRate = stats.Summarize(abortRate)
	agg.RollbackOverhead = stats.Summarize(rollback)
	agg.OrderMismatch = stats.Summarize(mismatch)
	agg.FinalIncongruence = stats.Fraction(incongruentTrials, len(reports))
	agg.StretchValues = stretch
	return agg
}

// Label renders "EV(TL)" / "GSV" style configuration labels.
func (a Aggregate) Label() string {
	if a.Model == visibility.EV {
		return fmt.Sprintf("%s(%s)", a.Model, a.Scheduler)
	}
	return a.Model.String()
}

// String renders a one-line summary, convenient for logs and examples.
func (a Aggregate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s trials=%d routines=%d committed=%d aborted=%d", a.Label(),
		a.Trials, a.Routines, a.Committed, a.Aborted)
	fmt.Fprintf(&b, " latency(p50/p95)=%.0f/%.0fms", a.LatencyMS.P50, a.LatencyMS.P95)
	fmt.Fprintf(&b, " tempInc=%.1f%%", 100*a.TempIncongruence.Mean)
	fmt.Fprintf(&b, " finalInc=%.1f%%", 100*a.FinalIncongruence)
	fmt.Fprintf(&b, " parallelism=%.2f", a.Parallelism.Mean)
	return b.String()
}
