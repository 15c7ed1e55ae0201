package runtime

import (
	"sync/atomic"

	"safehome/internal/telemetry"
	"safehome/internal/visibility"
)

// LoopMetrics is the set of instruments a home loop bumps in-line as it
// works: routine stage-latency histograms and the snapshot publish counter.
// Recording happens on the loop goroutine with single atomic operations — no
// locks, no allocation — and scraping reads the same atomics, so a scrape
// never touches a mailbox (the PR 4 off-loop read discipline applied to
// metrics).
//
// One LoopMetrics is shared by every home of a manager: per-home label sets
// at 100k-home density would be a cardinality bomb, and the histograms are
// concurrency-safe, so fleet-wide stage distributions cost nothing extra.
// A nil *LoopMetrics (Config.Metrics unset) disables recording with a single
// nil check on the hot path.
type LoopMetrics struct {
	// StagePlace observes the wall-clock cost of admission + scheduler
	// placement: the time Controller.Submit spends deciding where the
	// routine's commands land (the submit→placed stage).
	StagePlace *telemetry.Histogram
	// StageStart observes Started−Submitted on the home's clock: how long a
	// routine waited from acceptance to its first command executing (the
	// placed→started stage, measured from submission because placement is
	// instantaneous on the home clock).
	StageStart *telemetry.Histogram
	// StageDone observes Finished−Submitted on the home's clock: the full
	// routine latency through commit or abort (the submit→done span).
	StageDone *telemetry.Histogram
	// SnapshotPublishes counts immutable snapshots published by the loop —
	// the rate at which the off-loop read path advances.
	SnapshotPublishes *telemetry.Counter
}

// NewLoopMetrics registers the loop instrument families on reg.
func NewLoopMetrics(reg *telemetry.Registry) *LoopMetrics {
	const stageName = "safehome_routine_stage_seconds"
	const stageHelp = "Routine stage latency on the home clock: place = scheduler placement cost at submit, start = submitted to first command executing, done = submitted to commit/abort."
	buckets := telemetry.DefBuckets()
	return &LoopMetrics{
		StagePlace:        reg.Histogram(stageName, stageHelp, buckets, telemetry.L("stage", "place")),
		StageStart:        reg.Histogram(stageName, stageHelp, buckets, telemetry.L("stage", "start")),
		StageDone:         reg.Histogram(stageName, stageHelp, buckets, telemetry.L("stage", "done")),
		SnapshotPublishes: reg.Counter("safehome_snapshot_publishes_total", "Immutable snapshots published by home loops (the off-loop read path's advance rate)."),
	}
}

// SupervisionMetrics counts supervision events across every slot of an
// owner — fleet-wide, no per-home labels. Slots bump them (see Slot).
type SupervisionMetrics struct {
	Poisons     *telemetry.Counter
	Restarts    *telemetry.Counter
	Quarantines *telemetry.Counter
	// Restarting is the number of supervised rebuilds in flight right now.
	// It has no family of its own: the manager folds it into
	// safehome_homes{state="restarting"}.
	Restarting atomic.Int64
}

// NewSupervisionMetrics registers the supervision families on reg.
func NewSupervisionMetrics(reg *telemetry.Registry) *SupervisionMetrics {
	return &SupervisionMetrics{
		Poisons:     reg.Counter("safehome_supervision_poisons_total", "Home loops torn down by a panic."),
		Restarts:    reg.Counter("safehome_supervision_restarts_total", "Supervised restarts that came back clean."),
		Quarantines: reg.Counter("safehome_supervision_quarantines_total", "Homes quarantined: restart budget exhausted, or poisoned with supervision disabled."),
	}
}

// recordStage derives the start/done stage observations from controller
// events. It runs on the loop goroutine as part of the observer chain;
// Result is a read of loop-owned state, so the lookup is safe and free of
// synchronization. The visibility layer finalizes a routine's Result before
// emitting its event, so the timestamps are already in place.
func (rt *HomeRuntime) recordStage(e visibility.Event) {
	m := rt.cfg.Metrics
	switch e.Kind {
	case visibility.EvStarted:
		if res, ok := rt.ctrl.Result(e.Routine); ok && !res.Started.IsZero() && !res.Submitted.IsZero() {
			m.StageStart.Observe(res.Started.Sub(res.Submitted).Seconds())
		}
	case visibility.EvCommitted, visibility.EvAborted:
		if res, ok := rt.ctrl.Result(e.Routine); ok && !res.Finished.IsZero() && !res.Submitted.IsZero() {
			m.StageDone.Observe(res.Finished.Sub(res.Submitted).Seconds())
		}
	}
}
