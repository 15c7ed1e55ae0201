package runtime

import (
	"fmt"
	"slices"
	"sort"

	"safehome/internal/device"
	"safehome/internal/journal"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// This file wires the write-ahead journal (internal/journal) into the home
// runtime's loop. Durability rides the existing batch drain: while the loop
// applies a batch, journal collectors (an observer tap and the controller's
// StateSink) accumulate what the batch produced — accepted submissions,
// finished outcomes, committed-state changes, sequenced activity events —
// and journalFlush turns the accumulation into ONE journal record with ONE
// fsync (group commit), strictly before the batch's replies are delivered.
// An operation whose reply the caller has seen is therefore durable: after
// a crash, recovery rebuilds exactly the acknowledged state, and routines
// that were still in flight are aborted with rollback per the paper's
// failure semantics (their writes never reached the committed view, which
// is precisely what recovery restores).
//
// Checkpoints are cut from the already-immutable published Snapshot once
// enough journal has accumulated, after which older segments are truncated;
// see ARCHITECTURE.md ("Durability") for the lifecycle.

// journalState is the loop-owned accumulation between flushes.
type journalState struct {
	jrn      *journal.Journal
	submits  []routine.ID
	finishes []routine.ID
	states   []journal.StateEntry
	stateIdx map[device.ID]int // device -> index in states (last write wins)
	events   []journal.EventRecord
	firstSeq uint64 // sequence of events[0]

	bank        []journal.BankRecord
	bankIdx     map[string]int // routine name -> index in bank (last write wins)
	trigArms    []journal.TriggerRecord
	trigArmIdx  map[TriggerHandle]int // handle -> index in trigArms (last arm wins)
	trigCancels []int64

	// batch, submitRecs and finishRecs are journalFlush's record, reused
	// across flushes: Append encodes it synchronously and retains nothing.
	batch      journal.Batch
	submitRecs []journal.RoutineRecord
	finishRecs []journal.RoutineRecord
}

// openJournal opens the runtime's data directory and recovers its durable
// state. Called from the constructors before the controller exists.
func (rt *HomeRuntime) openJournal() (*journal.Recovered, error) {
	if rt.cfg.DataDir == "" {
		return nil, nil
	}
	opts := rt.cfg.Journal
	if opts.HomeID == "" {
		opts.HomeID = rt.cfg.ID // the log's frames carry the home ID
	}
	j, rec, err := journal.Open(rt.cfg.DataDir, opts)
	if err != nil {
		return nil, fmt.Errorf("runtime: home %q: %w", rt.cfg.ID, err)
	}
	rt.j = &journalState{
		jrn:        j,
		stateIdx:   make(map[device.ID]int),
		bankIdx:    make(map[string]int),
		trigArmIdx: make(map[TriggerHandle]int),
	}
	return rec, nil
}

// collectJournal is the observer tap: it notes submissions and finishes (the
// outcome records are resolved from the controller at flush time, when they
// are final) and captures activity events with their sequence numbers.
func (rt *HomeRuntime) collectJournal(e visibility.Event) {
	switch e.Kind {
	case visibility.EvSubmitted:
		rt.j.submits = append(rt.j.submits, e.Routine)
	case visibility.EvCommitted, visibility.EvAborted:
		rt.j.finishes = append(rt.j.finishes, e.Routine)
	}
	if rt.cfg.EventLog > 0 {
		if len(rt.j.events) == 0 {
			// recordEvent runs after this tap, so nextSeqLive is still the
			// sequence this event will get.
			rt.j.firstSeq = rt.elog.nextSeqLive()
		}
		rt.j.events = append(rt.j.events, journal.FromEvent(e))
	}
}

// noteStateChange is the controller's StateSink: committed-state changes are
// deduplicated per batch (last write wins — recovery only needs the final
// value).
func (rt *HomeRuntime) noteStateChange(d device.ID, s device.State) {
	if i, ok := rt.j.stateIdx[d]; ok {
		rt.j.states[i].State = s
		return
	}
	rt.j.stateIdx[d] = len(rt.j.states)
	rt.j.states = append(rt.j.states, journal.StateEntry{Device: d, State: s})
}

// noteBankPut journals one bank store (last write per name wins within a
// batch). Runs on the loop goroutine.
func (rt *HomeRuntime) noteBankPut(r *routine.Routine) {
	rec := journal.BankRecord{Name: r.Name, User: r.User, Commands: r.Commands}
	if i, ok := rt.j.bankIdx[r.Name]; ok {
		rt.j.bank[i] = rec
		return
	}
	rt.j.bankIdx[r.Name] = len(rt.j.bank)
	rt.j.bank = append(rt.j.bank, rec)
}

// noteTriggerArm journals one trigger arm — a fresh schedule or a recurring
// trigger's re-arm (last arm per handle wins within a batch).
func (rt *HomeRuntime) noteTriggerArm(spec ScheduledTrigger) {
	rec := triggerRecord(spec)
	if i, ok := rt.j.trigArmIdx[spec.Handle]; ok {
		rt.j.trigArms[i] = rec
		return
	}
	rt.j.trigArmIdx[spec.Handle] = len(rt.j.trigArms)
	rt.j.trigArms = append(rt.j.trigArms, rec)
}

// noteTriggerCancel journals a trigger's retirement (explicit cancel, or a
// one-shot trigger having fired). An arm of the same handle earlier in the
// batch is moot but harmless: replay applies arms before cancels.
func (rt *HomeRuntime) noteTriggerCancel(handle TriggerHandle) {
	rt.j.trigCancels = append(rt.j.trigCancels, int64(handle))
}

func (rt *HomeRuntime) journalEmpty() bool {
	return len(rt.j.submits) == 0 && len(rt.j.finishes) == 0 &&
		len(rt.j.states) == 0 && len(rt.j.events) == 0 &&
		len(rt.j.bank) == 0 && len(rt.j.trigArms) == 0 && len(rt.j.trigCancels) == 0
}

func (rt *HomeRuntime) journalReset() {
	rt.j.submits = rt.j.submits[:0]
	rt.j.finishes = rt.j.finishes[:0]
	rt.j.states = rt.j.states[:0]
	clear(rt.j.stateIdx)
	rt.j.events = rt.j.events[:0]
	rt.j.firstSeq = 0
	rt.j.bank = rt.j.bank[:0]
	clear(rt.j.bankIdx)
	rt.j.trigArms = rt.j.trigArms[:0]
	clear(rt.j.trigArmIdx)
	rt.j.trigCancels = rt.j.trigCancels[:0]
}

// resolveRecords materializes the current outcome records of the given
// routines from the controller into out, reusing its backing array.
func (rt *HomeRuntime) resolveRecords(out []journal.RoutineRecord, ids []routine.ID) []journal.RoutineRecord {
	out = out[:0]
	for _, id := range ids {
		if res, ok := rt.ctrl.Result(id); ok {
			out = append(out, journal.FromResult(res))
		}
	}
	return out
}

// journalFlush group-commits everything the batch accumulated: one record,
// one fsync, called on the loop goroutine strictly before the batch's
// replies are delivered.
func (rt *HomeRuntime) journalFlush() {
	if rt.j == nil || rt.journalEmpty() {
		return
	}
	// The batch borrows the accumulation buffers: Append encodes it
	// synchronously and retains nothing, so the buffers are reset (not
	// copied) afterwards — no per-commit slice copies on the durable path.
	rt.j.submitRecs = rt.resolveRecords(rt.j.submitRecs, rt.j.submits)
	rt.j.finishRecs = rt.resolveRecords(rt.j.finishRecs, rt.j.finishes)
	b := &rt.j.batch
	*b = journal.Batch{
		Submits:     rt.j.submitRecs,
		Finishes:    rt.j.finishRecs,
		States:      rt.j.states,
		FirstSeq:    rt.j.firstSeq,
		Events:      rt.j.events,
		Bank:        rt.j.bank,
		TrigArms:    rt.j.trigArms,
		TrigCancels: rt.j.trigCancels,
	}
	if err := rt.j.jrn.Append(b); err != nil {
		rt.journalFail(err) // sets rt.j = nil; nothing left to reset
		return
	}
	err := rt.j.jrn.Commit()
	rt.journalReset()
	if err != nil {
		rt.journalFail(err)
	}
}

// maybeCheckpoint cuts a checkpoint once enough journal has accumulated. It
// runs right after publish, so the snapshot it reads covers everything up to
// and including the journal's last record.
func (rt *HomeRuntime) maybeCheckpoint() {
	if rt.j == nil || !rt.j.jrn.ShouldCheckpoint() {
		return
	}
	rt.checkpointNow()
}

// checkpointNow derives a durable image from the latest published Snapshot
// (results including open routines, committed states, the retained event
// window) and hands it to the journal, which truncates the segments the
// checkpoint covers. Its head lists the home's devices (and carries the
// frozen summary of a freeze's final checkpoint).
//
// The routine history is written incrementally, riding the export spine's
// write-once chunks: every aligned DefaultSealSize run of terminal results
// beyond the already-sealed prefix is sealed into an immutable chunk object
// first (each such run is serialized exactly once in the home's lifetime),
// and the checkpoint image itself carries only the unsealed tail. Cutting a
// checkpoint is therefore O(new finishes since the last one) instead of
// O(history) — cheap enough for the hibernation freezer to run it as every
// idle home's final act.
func (rt *HomeRuntime) checkpointNow() {
	if rt.j == nil {
		return
	}
	s := rt.snap.Load()
	results := s.state.Results
	n := results.Len()
	sealed := rt.j.jrn.SealedRoutines()
	sealSize := rt.j.jrn.SealedChunkSize()
	if sealSize <= 0 {
		sealSize = journal.DefaultSealSize
	}
	var chunk []journal.RoutineRecord
	for sealed+sealSize <= n {
		complete := true
		chunk = chunk[:0]
		for i := sealed; i < sealed+sealSize; i++ {
			res := results.At(i)
			if !res.Status.Finished() {
				complete = false
				break
			}
			chunk = append(chunk, journal.FromResult(res))
		}
		if !complete {
			break // an open routine pins the seal frontier; retry next time
		}
		if err := rt.j.jrn.SealChunk(sealed/sealSize, chunk); err != nil {
			rt.journalFail(err)
			return
		}
		sealed += sealSize
	}
	ck := &journal.Checkpoint{Head: journal.Head{Devices: rt.reg.All(), Frozen: rt.frozen}}
	if sealed > 0 {
		ck.Sealed, ck.SealSize = sealed, sealSize
	}
	ck.Routines = make([]journal.RoutineRecord, 0, n-sealed)
	for i := sealed; i < n; i++ {
		ck.Routines = append(ck.Routines, journal.FromResult(results.At(i)))
	}
	for d, st := range s.CommittedStates() {
		ck.States = append(ck.States, journal.StateEntry{Device: d, State: st})
	}
	first, _ := s.EventSeqRange()
	ck.FirstSeq = first
	events := s.Events()
	ck.Events = make([]journal.EventRecord, 0, len(events))
	for _, e := range events {
		ck.Events = append(ck.Events, journal.FromEvent(e))
	}
	for _, name := range rt.bank.Names() {
		if r, ok := rt.bank.Get(name); ok {
			ck.Bank = append(ck.Bank, journal.BankRecord{Name: r.Name, User: r.User, Commands: r.Commands})
		}
	}
	// Live triggers plus the ones a clean Close retired: both must re-arm on
	// the next start.
	for _, tr := range rt.triggers {
		ck.Triggers = append(ck.Triggers, triggerRecord(tr.spec))
	}
	for _, spec := range rt.retiredTriggers {
		ck.Triggers = append(ck.Triggers, triggerRecord(spec))
	}
	ck.NextTrigger = int64(rt.nextTrigger)
	if err := rt.j.jrn.Checkpoint(ck); err != nil {
		rt.journalFail(err)
	}
}

func triggerRecord(spec ScheduledTrigger) journal.TriggerRecord {
	return journal.TriggerRecord{
		Handle:   int64(spec.Handle),
		Routine:  spec.Routine,
		Interval: spec.Interval,
		NextFire: spec.NextFire,
		Fired:    spec.Fired,
	}
}

// journalFail disables journaling after an I/O error (disk full, permission
// flip, ...). The home keeps serving from memory — availability over
// durability — and the error is surfaced through JournalError.
func (rt *HomeRuntime) journalFail(err error) {
	rt.jErr.Store(err)
	rt.j.jrn.Abandon()
	rt.j = nil
}

// JournalError reports the error that disabled journaling, if any. A nil
// return with a configured DataDir means every acknowledged batch so far is
// durable.
func (rt *HomeRuntime) JournalError() error {
	if v := rt.jErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Durable reports whether the runtime is journaling (a DataDir was
// configured and no journal I/O error has occurred).
func (rt *HomeRuntime) Durable() bool { return rt.cfg.DataDir != "" && rt.JournalError() == nil }

// recoverFrom seeds the freshly built controller, event log and observer
// chain from a journal recovery. It runs in the constructors, before the
// loop starts. Routines that were in flight at the crash are terminated per
// the paper's failure semantics: aborted, with their effects rolled back to
// the pre-routine committed states (which is exactly the recovered committed
// view — an unfinished routine's writes never entered it), and surfaced as
// Aborted outcomes plus EvAborted activity events.
func (rt *HomeRuntime) recoverFrom(rec *journal.Recovered) {
	now := rt.env.Now()
	results := make([]visibility.Result, 0, len(rec.Routines))
	var aborted []visibility.Result
	for _, rr := range rec.Routines {
		res := rr.ToResult()
		if !res.Status.Finished() {
			res.Status = visibility.StatusAborted
			res.AbortReason = "hub restart: in flight at crash, rolled back"
			if res.Started.IsZero() {
				res.Started = res.Submitted
			}
			res.Finished = now
			aborted = append(aborted, res)
		}
		results = append(results, res)
	}
	rt.ctrl.Preload(results)

	if rt.cfg.EventLog > 0 {
		events := make([]visibility.Event, 0, len(rec.Events))
		for _, er := range rec.Events {
			events = append(events, er.ToEvent())
		}
		rt.elog.restore(rec.FirstSeq, events)
	}
	// Announce the crash-aborts through the observer chain: they land in the
	// event log (with post-restart sequence numbers), the owner's counters,
	// and the journal collectors — the post-recovery checkpoint makes them
	// durable.
	for _, res := range aborted {
		rt.observe(visibility.Event{
			Time:    now,
			Kind:    visibility.EvAborted,
			Routine: res.ID,
			Detail:  res.AbortReason,
		})
	}

	// Re-seed the routine bank in first-store order, then re-arm recovered
	// triggers so automations survive the restart: a trigger whose deadline
	// passed while the home was down fires as soon as the clock advances.
	for _, b := range rec.Bank {
		_ = rt.bank.Store(&routine.Routine{Name: b.Name, User: b.User, Commands: b.Commands})
	}
	rt.nextTrigger = TriggerHandle(rec.NextTrigger)
	handles := make([]int64, 0, len(rec.Triggers))
	for h := range rec.Triggers {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(a, b int) bool { return handles[a] < handles[b] })
	for _, h := range handles {
		tr := rec.Triggers[h]
		if TriggerHandle(tr.Handle) > rt.nextTrigger {
			rt.nextTrigger = TriggerHandle(tr.Handle)
		}
		if tr.Interval > 0 && rt.cfg.Clock == ClockVirtual {
			continue // recurring triggers cannot run on a virtual clock
		}
		delay := tr.NextFire.Sub(now)
		if delay < 0 {
			delay = 0
		}
		nf := tr.NextFire
		if nf.Before(now) {
			nf = now
		}
		handle := TriggerHandle(tr.Handle)
		t := &trigger{spec: ScheduledTrigger{
			Handle:   handle,
			Routine:  tr.Routine,
			Interval: tr.Interval,
			NextFire: nf,
			Fired:    tr.Fired,
		}}
		t.cancel = rt.armTrigger(handle, delay)
		rt.triggers[handle] = t
	}
}

// finishRecovery runs after the recovered snapshot is published, before
// the loop starts. It cuts a fresh checkpoint, so the pre-crash records are
// truncated and the next recovery replays only what happens from here on —
// unless the checkpoint on disk already is the recovered state: nothing was
// replayed above it, nothing aborted (an abort is journaled), and its head
// lists the home's devices. Skipping it is what lets a woken home that has
// not appended yet stay frozen on disk, its summary intact.
func (rt *HomeRuntime) finishRecovery(rec *journal.Recovered) {
	if rec.Replayed > 0 || !rt.journalEmpty() || !slices.Equal(rec.Devices, rt.reg.All()) {
		rt.checkpointNow()
	}
	if rt.j != nil {
		rt.journalReset()
	}
}
