// Hibernation: an idle home's runtime — loop goroutine, mailbox ring,
// controller with its lineage, fleet, event chunks, journal descriptors —
// collapses to a journal.FrozenHome summary of a few hundred bytes. The
// freeze rides the ordinary graceful Close: triggers retire into the final
// checkpoint, the mailbox drains (everything already acknowledged is
// journaled), the simulator quiesces, and the last checkpoint lands, with
// the summary in its head, before the journal closes. Reanimation is
// exactly journal recovery, so the durability contract — acknowledged
// results, committed states and event cursors come back exactly — is the
// freeze/wake contract too, verified by the same drills.
package runtime

import (
	"fmt"
	"time"

	"safehome/internal/journal"
)

// Freeze takes the home's final checkpoint, headed by the home's frozen
// summary, and returns that summary. It runs the full graceful Close —
// lineage compaction first, then trigger retirement, mailbox drain,
// simulator quiesce, final group commit and checkpoint. The home is frozen
// on disk once that checkpoint lands: it carries the summary and nothing
// of the home lies above it (journal.ReadHead).
//
// Freeze fails (after the Close, which is irrevocable) if the home was
// poisoned mid-drain, its journal died before the final checkpoint landed,
// or it was already closed: the caller owns the slot transition and on
// error must rebuild the runtime from disk instead.
func (rt *HomeRuntime) Freeze() (*journal.FrozenHome, error) {
	if !rt.Durable() {
		return nil, fmt.Errorf("runtime: home %q cannot freeze without a durable journal", rt.cfg.ID)
	}
	// Bound the frozen lineage before the final checkpoint: fold every
	// fully released lock access into the committed states, so the record
	// the home wakes from carries no stale history. Best-effort — a home
	// already closing skips it.
	rp := newReply()
	if err := rt.post(op{kind: opCompactNow, reply: rp}); err != nil {
		rp.discard()
	} else {
		rp.await()
	}
	rt.freezing.Store(true)
	rt.Close()
	if rt.poisoned.Load() {
		return nil, fmt.Errorf("runtime: home %q was poisoned during freeze: %v", rt.cfg.ID, rt.panicErr.Load())
	}
	if err := rt.JournalError(); err != nil {
		return nil, fmt.Errorf("runtime: home %q freeze lost its journal: %w", rt.cfg.ID, err)
	}
	// The loop has exited (<-rt.done inside Close orders its writes before
	// this read).
	if rt.frozen == nil {
		return nil, fmt.Errorf("runtime: home %q was closed before it could freeze", rt.cfg.ID)
	}
	return rt.frozen, nil
}

// frozenSummary reads the quiesced home's summary for its final
// checkpoint. Loop goroutine, after the final publish.
func (rt *HomeRuntime) frozenSummary() *journal.FrozenHome {
	snap := rt.snap.Load()
	_, nextSeq := snap.EventSeqRange()
	fr := &journal.FrozenHome{
		Model:    rt.cfg.Model.String(),
		Routines: snap.Counts().Routines,
		Accepted: rt.accepted.Load(),
		Rejected: rt.rejected.Load(),
		Created:  rt.started,
		FrozenAt: time.Now(),
		NextSeq:  nextSeq,
	}
	for _, spec := range rt.retiredTriggers {
		if fr.NextFire.IsZero() || spec.NextFire.Before(fr.NextFire) {
			fr.NextFire = spec.NextFire
		}
	}
	return fr
}
