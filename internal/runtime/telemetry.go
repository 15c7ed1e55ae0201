package runtime

import (
	"sync/atomic"
	"time"

	"safehome/internal/journal"
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

// NewLoopMetrics registers the loop instrument families on reg. Both the hub
// and the manager call this, so the family names and bucket ladders agree
// across every /metrics surface.
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

// NewJournalMetrics registers the journal families on reg and returns the
// two things an owner wires into its journals and writer fleet: the Stats
// every journal.Options and the journal.WriterOptions share (fleet-wide
// append/fsync/checkpoint totals and the log records recovery scanned and
// decoded, no per-home cardinality) and the OnCycle
// hook that feeds the group-commit coalescing histograms. Like
// NewLoopMetrics, both the hub and the manager call this, so the journal
// families are identical on every /metrics surface. The hook runs with the
// writer's lock held, so it stays a pair of plain observations.
func NewJournalMetrics(reg *telemetry.Registry) (*journal.Stats, func(bytes int64, commits int)) {
	s := new(journal.Stats)
	reg.CounterFunc("safehome_journal_appends_total", "Batch records appended to the write-ahead journal, all homes.", s.Appends.Load)
	reg.CounterFunc("safehome_journal_appended_bytes_total", "Framed bytes appended to the write-ahead journal, all homes.", s.AppendedBytes.Load)
	reg.CounterFunc("safehome_journal_fsyncs_total", "Journal data fsyncs (writer sync cycles).", s.Fsyncs.Load)
	reg.CounterFunc("safehome_journal_checkpoints_total", "Checkpoint images durably published, all homes.", s.Checkpoints.Load)
	reg.CounterFunc("safehome_journal_scanned_records_total", "Log records recovery read past their frame check (boot scan and per-home tail reads).", s.ScannedRecords.Load)
	reg.CounterFunc("safehome_journal_decoded_records_total", "Log records whose body recovery decoded: those it replays, plus any whose home its prefix does not name.", s.DecodedRecords.Load)
	reg.GaugeFunc("safehome_journal_checkpoint_age_seconds", "Seconds since the most recent checkpoint of any home (-1 until one lands).", func() float64 {
		last := s.LastCheckpointUnixNano.Load()
		if last == 0 {
			return -1
		}
		return time.Since(time.Unix(0, last)).Seconds()
	})
	cycleBytes := reg.Histogram("safehome_journal_group_cycle_bytes",
		"Bytes made durable per writer fsync cycle (the group-commit coalescing factor in bytes).",
		telemetry.ExponentialBuckets(256, 4, 10))
	cycleCommits := reg.Histogram("safehome_journal_group_cycle_commits",
		"Commit tickets released per writer fsync cycle (how many homes' commits rode one fsync).",
		telemetry.ExponentialBuckets(1, 2, 10))
	return s, func(bytes int64, commits int) {
		cycleBytes.Observe(float64(bytes))
		cycleCommits.Observe(float64(commits))
	}
}

// SupervisionMetrics counts supervision events across every slot of an
// owner — fleet-wide, no per-home labels. Slots bump them (see Slot); like
// the loop and journal families, both the hub and the manager register them
// through NewSupervisionMetrics, so every /metrics surface carries the same
// set.
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
