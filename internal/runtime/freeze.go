// Hibernation: an idle home's runtime — loop goroutine, mailbox ring,
// controller with its lineage, fleet, event chunks, journal descriptors —
// collapses to a FrozenHome record of a few hundred bytes. The freeze rides
// the ordinary graceful Close: triggers retire into the final checkpoint,
// the mailbox drains (everything already acknowledged is journaled), the
// simulator quiesces, and the last checkpoint lands before the journal
// closes. Reanimation is exactly journal recovery, so the PR 5 contract —
// acknowledged results, committed states and event cursors come back
// exactly — is the freeze/wake contract too, verified by the same drills.
package runtime

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"safehome/internal/journal"
)

// FrozenHome is everything the manager keeps resident for a hibernated
// home: identity, where its durable state lives, the earliest scheduled
// trigger deadline (so a manager-level deadline heap can wake it on time),
// and the last observed counters for no-wake status reporting.
type FrozenHome struct {
	ID      string `json:"id"`
	DataDir string `json:"data_dir"`
	Model   string `json:"model"`
	// NextFire is the earliest deadline among the scheduled triggers that
	// retired into the final checkpoint (zero = none). Recovery re-arms a
	// past deadline with zero delay, so waking the home at NextFire fires
	// the trigger on time.
	NextFire time.Time `json:"next_fire,omitempty"`
	// Status-without-waking fields, captured at the freeze instant.
	Routines int       `json:"routines"`
	Devices  int       `json:"devices"`
	Accepted int64     `json:"accepted"`
	Rejected int64     `json:"rejected"`
	Created  time.Time `json:"created"`
	FrozenAt time.Time `json:"frozen_at"`
	// NextSeq is the home's event cursor at the freeze instant: a poll with
	// since >= NextSeq has nothing to fetch and is answered from this record.
	// Zero (a marker written before the field existed) means unknown — such
	// a home wakes to answer any events poll.
	NextSeq uint64 `json:"next_seq,omitempty"`
}

// Freeze takes the home's final checkpoint and reduces it to a FrozenHome
// record. It runs the full graceful Close — lineage compaction first, then
// trigger retirement, mailbox drain, simulator quiesce, final group commit
// and checkpoint — and then reads the quiesced loop-owned state inline.
//
// Freeze fails (after the Close, which is irrevocable) if the home was
// poisoned mid-drain or its journal died before the final checkpoint
// landed: a frozen record without a complete checkpoint behind it would
// wake into less state than was acknowledged. The caller owns the slot
// transition; on error it must rebuild the runtime from disk instead.
func (rt *HomeRuntime) Freeze() (*FrozenHome, error) {
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
	rt.Close()
	if rt.poisoned.Load() {
		return nil, fmt.Errorf("runtime: home %q was poisoned during freeze: %v", rt.cfg.ID, rt.panicErr.Load())
	}
	if err := rt.JournalError(); err != nil {
		return nil, fmt.Errorf("runtime: home %q freeze lost its journal: %w", rt.cfg.ID, err)
	}

	// The loop has exited (<-rt.done inside Close orders its writes before
	// these reads); loop-owned state is inline-readable now.
	snap := rt.Snapshot()
	counts := snap.Counts()
	_, nextSeq := snap.EventSeqRange()
	fr := &FrozenHome{
		ID:       rt.cfg.ID,
		DataDir:  rt.cfg.DataDir,
		Model:    rt.cfg.Model.String(),
		Routines: counts.Routines,
		Devices:  rt.reg.Len(),
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
	return fr, nil
}

// frozenName is the marker file distinguishing "cleanly hibernated" from
// "crashed while live" in a home's data directory across a hub restart:
// present ⇒ stay cold (the final checkpoint is complete; wake on demand);
// journal state without it ⇒ the home died live and must recover live.
const frozenName = "frozen.json"

// WriteFrozenRecord durably publishes the frozen marker in the home's data
// directory. It is written strictly after the final checkpoint (Freeze
// returned) — a crash between the two leaves a live-recoverable journal and
// no marker, which is exactly the CrashMidFreeze drill's assertion.
func WriteFrozenRecord(fr *FrozenHome) error {
	buf, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return fmt.Errorf("runtime: encoding frozen record: %w", err)
	}
	if err := (journal.DirStore{Dir: fr.DataDir}).Put(frozenName, buf); err != nil {
		return fmt.Errorf("runtime: writing frozen record: %w", err)
	}
	return nil
}

// ReadFrozenRecord loads a home's frozen marker, returning (nil, nil) when
// the home is not hibernated.
func ReadFrozenRecord(dir string) (*FrozenHome, error) {
	buf, err := os.ReadFile(filepath.Join(dir, frozenName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runtime: reading frozen record: %w", err)
	}
	var fr FrozenHome
	if err := json.Unmarshal(buf, &fr); err != nil {
		return nil, fmt.Errorf("runtime: decoding frozen record: %w", err)
	}
	if fr.DataDir == "" {
		fr.DataDir = dir
	}
	return &fr, nil
}

// RemoveFrozenRecord deletes the frozen marker. The waker calls it before
// building the runtime, so a crash mid-wake leaves journal state with no
// marker — an ordinary live recovery on the next start, never a stale
// "frozen" claim over a home that already reanimated.
func RemoveFrozenRecord(dir string) error {
	err := os.Remove(filepath.Join(dir, frozenName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runtime: removing frozen record: %w", err)
	}
	return nil
}
