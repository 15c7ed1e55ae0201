package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"safehome/internal/jsonenc"
	"safehome/internal/routine"
)

// This file is the write half of the payload records: append-style encoders
// for Batch, Checkpoint and sealedChunk that write straight into a frame
// buffer, behind the header they fill in last. Their output is byte for byte
// what json.Marshal produces for the same value — field order, omitempty (a
// time.Time is never empty, a nil Commands is null), HTML-safe strings — and a
// value json.Marshal refuses (a time outside years 0..9999, a zone offset of a
// day or more) fails the write as it always has. encode_test.go holds them to
// json.Marshal, and to the frames older builds wrote (testdata). The decoders
// stay on encoding/json: the format is the one it has always been.

// errUnencodable is the value json.Marshal refuses.
var errUnencodable = errors.New("a time outside years 0..9999 or with a zone offset of a day or more")

// beginFrame appends a reserved frame header to w, behind which the
// payload is encoded, and returns where the frame starts.
func beginFrame(w *jsonenc.Buf) int {
	start := len(w.B)
	w.B = append(w.B, make([]byte, frameHeaderLen)...)
	return start
}

// endFrame fills in the header of the frame at start once its payload (a
// what) is encoded. It refuses a value json.Marshal would not have encoded,
// and a payload over maxFramePayload: recovery rejects such a frame as a
// garbage length, so writing (and acknowledging) one would silently lose it
// and everything after it on the next restart.
func endFrame(w *jsonenc.Buf, start int, what string) error {
	if w.Bad {
		return fmt.Errorf("journal: encoding %s: %w", what, errUnencodable)
	}
	payload := w.B[start+frameHeaderLen:]
	if len(payload) > maxFramePayload {
		return fmt.Errorf("journal: %s is %d bytes, over the %d frame limit", what, len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(w.B[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.B[start+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// checkpointFile encodes ck's checkpoint file: the head frame, then the
// image frame. The head is small and written once per checkpoint, so
// json.Marshal encodes it.
func checkpointFile(ck *Checkpoint) ([]byte, error) {
	h := ck.Head
	h.LSN = ck.LSN
	head, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding checkpoint head: %w", err)
	}
	var w jsonenc.Buf
	start := beginFrame(&w)
	w.B = append(w.B, head...)
	if err := endFrame(&w, start, "checkpoint head"); err != nil {
		return nil, err
	}
	start = beginFrame(&w)
	encodeCheckpoint(&w, ck)
	return w.B, endFrame(&w, start, "checkpoint image")
}

// encodeBatch appends b's payload.
func encodeBatch(w *jsonenc.Buf, b *Batch) {
	w.Uint(`{"lsn":`, b.LSN)
	if b.Home != "" {
		w.Str(`,"home":`, b.Home)
	}
	if len(b.Submits) > 0 {
		encodeRoutines(w, `,"submits":`, b.Submits)
	}
	if len(b.Finishes) > 0 {
		encodeRoutines(w, `,"finishes":`, b.Finishes)
	}
	if len(b.States) > 0 {
		encodeStates(w, b.States)
	}
	if b.FirstSeq != 0 {
		w.Uint(`,"first_seq":`, b.FirstSeq)
	}
	if len(b.Events) > 0 {
		encodeEvents(w, b.Events)
	}
	if len(b.Bank) > 0 {
		encodeBank(w, b.Bank)
	}
	if len(b.TrigArms) > 0 {
		encodeTriggers(w, `,"trig_arms":`, b.TrigArms)
	}
	if len(b.TrigCancels) > 0 {
		w.Raw(`,"trig_cancels":`)
		for i, h := range b.TrigCancels {
			w.Int(sep(i), h)
		}
		w.Raw("]")
	}
	w.Raw("}")
}

// encodeCheckpoint appends ck's payload.
func encodeCheckpoint(w *jsonenc.Buf, ck *Checkpoint) {
	w.Uint(`{"lsn":`, ck.LSN)
	if ck.Sealed != 0 {
		w.Int(`,"sealed":`, int64(ck.Sealed))
	}
	if ck.SealSize != 0 {
		w.Int(`,"seal_size":`, int64(ck.SealSize))
	}
	if len(ck.Routines) > 0 {
		encodeRoutines(w, `,"routines":`, ck.Routines)
	}
	if len(ck.States) > 0 {
		encodeStates(w, ck.States)
	}
	w.Uint(`,"first_seq":`, ck.FirstSeq)
	if len(ck.Events) > 0 {
		encodeEvents(w, ck.Events)
	}
	if len(ck.Bank) > 0 {
		encodeBank(w, ck.Bank)
	}
	if len(ck.Triggers) > 0 {
		encodeTriggers(w, `,"triggers":`, ck.Triggers)
	}
	if ck.NextTrigger != 0 {
		w.Int(`,"next_trigger":`, ck.NextTrigger)
	}
	w.Raw("}")
}

// encodeChunk appends a sealed chunk's payload.
func encodeChunk(w *jsonenc.Buf, c *sealedChunk) {
	w.Int(`{"index":`, int64(c.Index))
	encodeRoutines(w, `,"routines":`, c.Routines)
	w.Raw("}")
}

// The array encoders write omitempty members, so their callers skip an empty
// slice — except for encodeRoutines (a sealed chunk's "routines" is not
// omitempty) and encodeCommands, which write one as encoding/json does.

// sep is the literal before element i of an array.
func sep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

// empty is the whole value of an empty slice: null when it is nil, as
// encoding/json writes one.
func empty(isNil bool) string {
	if isNil {
		return "null"
	}
	return "[]"
}

func encodeRoutines(w *jsonenc.Buf, key string, recs []RoutineRecord) {
	w.Raw(key)
	if len(recs) == 0 {
		w.Raw(empty(recs == nil))
		return
	}
	for i := range recs {
		r := &recs[i]
		w.Raw(sep(i))
		w.Int(`{"id":`, r.ID)
		w.Str(`,"name":`, r.Name)
		if r.User != "" {
			w.Str(`,"user":`, r.User)
		}
		encodeCommands(w, r.Commands)
		w.Str(`,"status":`, r.Status)
		w.Time(`,"submitted":`, r.Submitted)
		w.Time(`,"started":`, r.Started)
		w.Time(`,"finished":`, r.Finished)
		if r.Executed != 0 {
			w.Int(`,"executed":`, int64(r.Executed))
		}
		if r.Skipped != 0 {
			w.Int(`,"skipped":`, int64(r.Skipped))
		}
		if r.BestEffort != 0 {
			w.Int(`,"best_effort":`, int64(r.BestEffort))
		}
		if r.RolledBack != 0 {
			w.Int(`,"rolled_back":`, int64(r.RolledBack))
		}
		if r.AbortReason != "" {
			w.Str(`,"abort_reason":`, r.AbortReason)
		}
		w.Raw("}")
	}
	w.Raw("]")
}

// encodeCommands appends a routine or bank record's "commands" member.
func encodeCommands(w *jsonenc.Buf, cmds []routine.Command) {
	w.Raw(`,"commands":`)
	if len(cmds) == 0 {
		w.Raw(empty(cmds == nil))
		return
	}
	for i := range cmds {
		c := &cmds[i]
		w.Raw(sep(i))
		w.Str(`{"device":`, string(c.Device))
		w.Str(`,"target":`, string(c.Target))
		if c.Duration != 0 {
			w.Int(`,"duration":`, int64(c.Duration))
		}
		if c.BestEffort {
			w.Raw(`,"best_effort":true`)
		}
		if c.Condition != nil {
			w.Str(`,"condition":{"device":`, string(c.Condition.Device))
			w.Str(`,"equals":`, string(c.Condition.Equals))
			w.Raw("}")
		}
		w.Raw("}")
	}
	w.Raw("]")
}

func encodeStates(w *jsonenc.Buf, states []StateEntry) {
	w.Raw(`,"states":`)
	for i := range states {
		s := &states[i]
		w.Raw(sep(i))
		w.Str(`{"device":`, string(s.Device))
		w.Str(`,"state":`, string(s.State))
		w.Raw("}")
	}
	w.Raw("]")
}

func encodeEvents(w *jsonenc.Buf, events []EventRecord) {
	w.Raw(`,"events":`)
	for i := range events {
		e := &events[i]
		w.Raw(sep(i))
		w.Time(`{"time":`, e.Time)
		w.Int(`,"kind":`, int64(e.Kind))
		if e.Routine != 0 {
			w.Int(`,"routine":`, e.Routine)
		}
		if e.Device != "" {
			w.Str(`,"device":`, e.Device)
		}
		if e.State != "" {
			w.Str(`,"state":`, e.State)
		}
		if e.Detail != "" {
			w.Str(`,"detail":`, e.Detail)
		}
		w.Raw("}")
	}
	w.Raw("]")
}

func encodeBank(w *jsonenc.Buf, bank []BankRecord) {
	w.Raw(`,"bank":`)
	for i := range bank {
		b := &bank[i]
		w.Raw(sep(i))
		w.Str(`{"name":`, b.Name)
		if b.User != "" {
			w.Str(`,"user":`, b.User)
		}
		encodeCommands(w, b.Commands)
		w.Raw("}")
	}
	w.Raw("]")
}

func encodeTriggers(w *jsonenc.Buf, key string, trigs []TriggerRecord) {
	w.Raw(key)
	for i := range trigs {
		t := &trigs[i]
		w.Raw(sep(i))
		w.Int(`{"handle":`, t.Handle)
		w.Str(`,"routine":`, t.Routine)
		if t.Interval != 0 {
			w.Int(`,"interval":`, int64(t.Interval))
		}
		w.Time(`,"next_fire":`, t.NextFire)
		if t.Fired != 0 {
			w.Int(`,"fired":`, int64(t.Fired))
		}
		w.Raw("}")
	}
	w.Raw("]")
}
