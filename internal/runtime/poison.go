package runtime

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Panic isolation: a panic inside the loop (a controller bug, a bad timer
// callback, a corrupt routine) must cost exactly one home, not the process.
// runBatch recovers the panic and hands the error to poison, which tears the
// home down crash-style: the mailbox closes, every parked or queued caller is
// answered with ErrPoisoned, the journal's file descriptors and directory
// lock are released without flushing the poisoned batch (nothing in it was
// acknowledged, so durable truth is the last group commit — the same contract
// as a process kill), and the owner's OnPoison callback fires so a supervisor
// can rebuild the home from its journal.
//
// Forensics ride along: the panic message and the full goroutine stack are
// persisted to DataDir/poison.json (tmp+rename, best-effort) before OnPoison
// fires, surface in the owners' Status JSON as the home's last poison, and
// are cleared once a supervised restart brings the home back clean — so an
// operator can still see *why* a home died after the supervisor has already
// hidden the symptom.

// PoisonRecord is the persisted forensics of one poisoning panic.
type PoisonRecord struct {
	Time    time.Time `json:"time"`
	Home    string    `json:"home"`
	Message string    `json:"message"`
	Stack   string    `json:"stack,omitempty"`
}

const poisonFileName = "poison.json"

// LoadPoisonRecord reads the poison record persisted under dir, or nil if
// there is none (or it is unreadable — forensics never block a start).
func LoadPoisonRecord(dir string) *PoisonRecord {
	buf, err := os.ReadFile(filepath.Join(dir, poisonFileName))
	if err != nil {
		return nil
	}
	var rec PoisonRecord
	if json.Unmarshal(buf, &rec) != nil {
		return nil
	}
	return &rec
}

// ClearPoisonRecord removes the poison record persisted under dir — the
// supervisor calls it after a clean restart.
func ClearPoisonRecord(dir string) {
	_ = os.Remove(filepath.Join(dir, poisonFileName))
}

// writePoisonRecord persists rec under dir via tmp+rename. Best-effort: a
// home dying on a full disk must still finish poisoning.
func writePoisonRecord(dir string, rec *PoisonRecord) {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, poisonFileName+".tmp")
	if os.WriteFile(tmp, buf, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(dir, poisonFileName))
}

// failOp answers an operation that will never be applied.
func failOp(o *op, err error) {
	if o.reply != nil {
		o.reply.send(result{err: err})
	}
	if o.kind == opSuspend {
		close(o.gate) // never parks: the caller's resume is a no-op
	}
}

// poison runs on the loop goroutine after runBatch recovered a panic. The
// loop cannot close its own channel directly: a sender blocked on a full ring
// holds closeMu.RLock and only completes once the loop drains, so the close
// happens on a helper goroutine while this goroutine keeps receiving.
func (rt *HomeRuntime) poison(err error) {
	rt.panicErr.Store(err)
	rt.poisoned.Store(true)
	go rt.closeOnce.Do(func() {
		if rt.cancelDetect != nil {
			rt.cancelDetect()
		}
		rt.closeMu.Lock()
		rt.closed = true
		close(rt.ch)
		rt.closeMu.Unlock()
	})
	// If a concurrent Close won closeOnce, its graceful body still ends in
	// close(rt.ch); either way this drain terminates, answering everything
	// queued behind the poisoned batch.
	for o := range rt.ch {
		failOp(&o, ErrPoisoned)
	}
	if rt.j != nil {
		rt.j.jrn.Abandon()
		rt.j = nil
	}
	rec := &PoisonRecord{
		Time:    time.Now(),
		Home:    rt.cfg.ID,
		Message: err.Error(),
		Stack:   rt.panicStack,
	}
	rt.poisonRec.Store(rec)
	if rt.cfg.DataDir != "" {
		writePoisonRecord(rt.cfg.DataDir, rec)
	}
	if rt.cfg.OnPoison != nil {
		rt.cfg.OnPoison(err)
	}
}

// PoisonRecord returns the forensics record of the panic that poisoned the
// home, or nil if it never panicked. Set strictly before OnPoison fires, so
// a supervisor's callback always sees it.
func (rt *HomeRuntime) PoisonRecord() *PoisonRecord { return rt.poisonRec.Load() }

// Poisoned reports whether a panic killed the home's loop. A poisoned runtime
// answers queries from its last published snapshot, rejects mutations with
// ErrClosed/ErrPoisoned, and can be rebuilt from the same DataDir.
func (rt *HomeRuntime) Poisoned() bool { return rt.poisoned.Load() }

// PanicError returns the error recorded when a panic poisoned the home, or
// nil if the home never panicked.
func (rt *HomeRuntime) PanicError() error {
	if v := rt.panicErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}
