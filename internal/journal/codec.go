package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
	"safehome/internal/visibility"
)

// This file is the journal's wire format: a binary record frame (length +
// CRC-32C over a JSON payload) and the payload records themselves. The frame
// is what makes recovery safe against torn writes — a record interrupted by
// a crash fails its length or checksum test and is cleanly dropped, never
// partially applied — and the JSON payloads keep the on-disk format
// self-describing and forward-extensible (unknown fields are ignored on
// replay). The payloads are the bytes json.Marshal writes for the record
// types below; the hand encoders in encode.go write them, encoding/json
// reads them back.
//
// Frame layout, little-endian:
//
//	[4B payload length] [4B CRC-32C of payload] [payload]
//
// Decoding must never panic on arbitrary bytes (see FuzzScanFrames): every
// length is bounds-checked before any slice indexing, and a frame that fails
// any check ends the scan — everything at and past a torn or corrupt frame
// is discarded, matching write-ahead-log semantics (frames are written and
// synced strictly in order, so bytes after a bad frame were never
// acknowledged).

const (
	frameHeaderLen = 8
	// maxFramePayload bounds a single record. A batch record holds at most
	// one loop drain's worth of routines and events; 64 MiB is far beyond any
	// real batch and exists only to reject garbage lengths during recovery.
	maxFramePayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// scanFrames walks a segment image frame by frame, calling fn for each
// payload that passes the length and CRC checks. It stops at the first
// torn/corrupt frame (or when fn returns an error) and reports whether the
// whole image was consumed cleanly — a false return with a nil error is the
// expected shape of a crash-truncated tail, not a failure.
func scanFrames(buf []byte, fn func(payload []byte) error) (clean bool, err error) {
	for len(buf) > 0 {
		if len(buf) < frameHeaderLen {
			return false, nil // torn header
		}
		n := int64(binary.LittleEndian.Uint32(buf[0:4]))
		if n > maxFramePayload || n > int64(len(buf)-frameHeaderLen) {
			return false, nil // garbage length or torn payload
		}
		payload := buf[frameHeaderLen : frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
			return false, nil // corrupt payload
		}
		if err := fn(payload); err != nil {
			return false, err
		}
		buf = buf[frameHeaderLen+n:]
	}
	return true, nil
}

// --- payload records -------------------------------------------------------------

// RoutineRecord is the wire form of one routine's outcome (or, for a still
// open routine, its definition and progress so far).
type RoutineRecord struct {
	ID          int64             `json:"id"`
	Name        string            `json:"name"`
	User        string            `json:"user,omitempty"`
	Commands    []routine.Command `json:"commands"`
	Status      string            `json:"status"`
	Submitted   time.Time         `json:"submitted"`
	Started     time.Time         `json:"started,omitempty"`
	Finished    time.Time         `json:"finished,omitempty"`
	Executed    int               `json:"executed,omitempty"`
	Skipped     int               `json:"skipped,omitempty"`
	BestEffort  int               `json:"best_effort,omitempty"`
	RolledBack  int               `json:"rolled_back,omitempty"`
	AbortReason string            `json:"abort_reason,omitempty"`
}

// Open reports whether the routine had not finished when the record was cut.
func (r RoutineRecord) Open() bool {
	return r.Status != visibility.StatusCommitted.String() && r.Status != visibility.StatusAborted.String()
}

// FromResult converts a controller result into its wire record.
func FromResult(res visibility.Result) RoutineRecord {
	rec := RoutineRecord{
		ID:          int64(res.ID),
		Status:      res.Status.String(),
		Submitted:   res.Submitted,
		Started:     res.Started,
		Finished:    res.Finished,
		Executed:    res.Executed,
		Skipped:     res.Skipped,
		BestEffort:  res.BestEffortFailures,
		RolledBack:  res.RolledBack,
		AbortReason: res.AbortReason,
	}
	if res.Routine != nil {
		rec.Name = res.Routine.Name
		rec.User = res.Routine.User
		rec.Commands = res.Routine.Commands
	}
	return rec
}

// ToResult converts a wire record back into a controller result. Open
// records keep their recorded (non-terminal) status; recovery decides what
// to do with them (the runtime aborts them per the paper's failure
// semantics).
func (r RoutineRecord) ToResult() visibility.Result {
	res := visibility.Result{
		ID: routine.ID(r.ID),
		Routine: &routine.Routine{
			ID:        routine.ID(r.ID),
			Name:      r.Name,
			User:      r.User,
			Commands:  r.Commands,
			Submitted: r.Submitted,
		},
		Submitted:          r.Submitted,
		Started:            r.Started,
		Finished:           r.Finished,
		Executed:           r.Executed,
		Skipped:            r.Skipped,
		BestEffortFailures: r.BestEffort,
		RolledBack:         r.RolledBack,
		AbortReason:        r.AbortReason,
	}
	switch r.Status {
	case visibility.StatusCommitted.String():
		res.Status = visibility.StatusCommitted
	case visibility.StatusAborted.String():
		res.Status = visibility.StatusAborted
	case visibility.StatusRunning.String():
		res.Status = visibility.StatusRunning
	default:
		res.Status = visibility.StatusWaiting
	}
	return res
}

// StateEntry is one committed device-state change.
type StateEntry struct {
	Device device.ID    `json:"device"`
	State  device.State `json:"state"`
}

// EventRecord is the wire form of one activity-log event. Sequence numbers
// are implicit: the i-th event of a record has sequence FirstSeq+i.
type EventRecord struct {
	Time    time.Time `json:"time"`
	Kind    int       `json:"kind"`
	Routine int64     `json:"routine,omitempty"`
	Device  string    `json:"device,omitempty"`
	State   string    `json:"state,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// FromEvent converts a controller event into its wire record.
func FromEvent(e visibility.Event) EventRecord {
	return EventRecord{
		Time:    e.Time,
		Kind:    int(e.Kind),
		Routine: int64(e.Routine),
		Device:  string(e.Device),
		State:   string(e.State),
		Detail:  e.Detail,
	}
}

// ToEvent converts a wire record back into a controller event.
func (r EventRecord) ToEvent() visibility.Event {
	return visibility.Event{
		Time:    r.Time,
		Kind:    visibility.EventKind(r.Kind),
		Routine: routine.ID(r.Routine),
		Device:  device.ID(r.Device),
		State:   device.State(r.State),
		Detail:  r.Detail,
	}
}

// BankRecord is the wire form of one stored routine-bank definition.
type BankRecord struct {
	Name     string            `json:"name"`
	User     string            `json:"user,omitempty"`
	Commands []routine.Command `json:"commands"`
}

// TriggerRecord is the wire form of one scheduled trigger arm. A batch
// carries arms (schedule, or a recurring trigger's re-arm after firing) and
// cancellations; on replay the latest arm per handle wins and a cancel —
// explicit, or a one-shot trigger having fired — removes it. Recovery
// re-arms what remains, so automations survive a restart.
type TriggerRecord struct {
	Handle   int64         `json:"handle"`
	Routine  string        `json:"routine"`
	Interval time.Duration `json:"interval,omitempty"` // zero for one-shot triggers
	NextFire time.Time     `json:"next_fire"`
	Fired    int           `json:"fired,omitempty"`
}

// Batch is one group-committed journal record: everything durable that one
// loop drain produced — accepted submissions, finished outcomes, committed
// device-state changes, appended activity events, bank stores and trigger
// arms/cancellations. One Batch is one frame, one write, one fsync. LSN and
// Home stay the first two fields: recovery indexes records by the prefix
// they encode to (recordIndex).
type Batch struct {
	LSN uint64 `json:"lsn"`
	// Home tags the record with its home ID: many homes share one physical
	// log through a GroupWriter and recovery demultiplexes its segments by
	// this field. Only legacy per-home segments carry records without it.
	Home        string          `json:"home,omitempty"`
	Submits     []RoutineRecord `json:"submits,omitempty"`
	Finishes    []RoutineRecord `json:"finishes,omitempty"`
	States      []StateEntry    `json:"states,omitempty"`
	FirstSeq    uint64          `json:"first_seq,omitempty"`
	Events      []EventRecord   `json:"events,omitempty"`
	Bank        []BankRecord    `json:"bank,omitempty"`
	TrigArms    []TriggerRecord `json:"trig_arms,omitempty"`
	TrigCancels []int64         `json:"trig_cancels,omitempty"`
}

// Empty reports whether the batch carries nothing durable.
func (b *Batch) Empty() bool {
	return len(b.Submits) == 0 && len(b.Finishes) == 0 && len(b.States) == 0 && len(b.Events) == 0 &&
		len(b.Bank) == 0 && len(b.TrigArms) == 0 && len(b.TrigCancels) == 0
}

// FrozenHome is a hibernated home's summary: what its owner keeps resident,
// beside the home's ID and devices, while the home has no runtime. The
// earliest scheduled-trigger deadline lets a deadline heap wake it on time,
// and the counters answer status reads and tip polls without a wake. A
// freeze publishes it in the head of the home's final checkpoint.
type FrozenHome struct {
	Model string `json:"model"`
	// NextFire is the earliest deadline among the scheduled triggers that
	// retired into the final checkpoint (zero = none). Recovery re-arms a
	// past deadline with zero delay, so waking the home at NextFire fires
	// the trigger on time.
	NextFire time.Time `json:"next_fire,omitzero"`
	// Status-without-waking fields, captured at the freeze instant.
	Routines int       `json:"routines"`
	Accepted int64     `json:"accepted"`
	Rejected int64     `json:"rejected"`
	Created  time.Time `json:"created"`
	FrozenAt time.Time `json:"frozen_at"`
	// NextSeq is the home's event cursor at the freeze instant: a poll with
	// since >= NextSeq has nothing to fetch and is answered from the summary.
	NextSeq uint64 `json:"next_seq"`
}

// Head is the first frame of a checkpoint file, checked against its own CRC
// so a boot can read it alone (ReadHead): which home the directory holds,
// its devices, and — for a home frozen by this checkpoint — its summary.
// LSN repeats the image's, which the head must match.
type Head struct {
	LSN     uint64        `json:"lsn"`
	Home    string        `json:"home"`
	Devices []device.Info `json:"devices"`
	Frozen  *FrozenHome   `json:"frozen,omitempty"`
}

// Checkpoint is a full durable image of a home at one instant, derived from
// the runtime's immutable Snapshot. A recovery loads the newest checkpoint
// and replays only the journal records with LSN > Checkpoint.LSN; segments
// at or below the checkpoint are truncated.
//
// Checkpoints are incremental over the routine history: once every routine
// in an aligned SealSize-sized ID range is terminal, the range is sealed
// into an immutable chunk object (SealChunk) that later checkpoints
// reference by count instead of re-serializing — Sealed records how many
// leading routines live in chunks, and the image's own Routines slice
// starts at ID Sealed+1. Cutting a checkpoint is therefore O(new finishes
// since the last one), not O(history), which is what makes the hibernation
// freeze path cheap enough to run continuously. A checkpoint with Sealed ==
// 0 (every image written before chunks existed) recovers exactly as before.
type Checkpoint struct {
	LSN      uint64          `json:"lsn"`
	Sealed   int             `json:"sealed,omitempty"`
	SealSize int             `json:"seal_size,omitempty"`
	Routines []RoutineRecord `json:"routines,omitempty"`
	States   []StateEntry    `json:"states,omitempty"`
	FirstSeq uint64          `json:"first_seq"`
	Events   []EventRecord   `json:"events,omitempty"`
	Bank     []BankRecord    `json:"bank,omitempty"`
	Triggers []TriggerRecord `json:"triggers,omitempty"`
	// NextTrigger is the highest trigger handle ever issued, so recovered
	// homes keep handing out fresh handles.
	NextTrigger int64 `json:"next_trigger,omitempty"`
	// Head goes in the file's own leading frame, not in the image, which
	// is what it was before heads existed. Its LSN is the image's.
	Head Head `json:"-"`
}

// sealedChunk is the payload of one sealed-chunk object: an immutable,
// dense run of SealSize terminal routine records covering IDs
// Index*SealSize+1 .. (Index+1)*SealSize.
type sealedChunk struct {
	Index    int             `json:"index"`
	Routines []RoutineRecord `json:"routines"`
}

// decodeSealedChunk parses one sealed-chunk payload.
func decodeSealedChunk(payload []byte) (*sealedChunk, error) {
	var c sealedChunk
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("journal: decoding sealed chunk: %w", err)
	}
	return &c, nil
}

// DecodeBatch parses one batch payload. It never panics on arbitrary input.
func DecodeBatch(payload []byte) (*Batch, error) {
	var b Batch
	if err := json.Unmarshal(payload, &b); err != nil {
		return nil, fmt.Errorf("journal: decoding batch: %w", err)
	}
	return &b, nil
}

// The canonical prefix of every homed batch: Batch declares LSN and Home
// first, so encodeBatch (like json.Marshal) writes {"lsn":N,"home":"…" before
// anything else (TestBatchPrefixIsCanonical pins it on what Append writes).
var (
	lsnKey  = []byte(`{"lsn":`)
	homeKey = []byte(`,"home":"`)
)

// recordIndex reads a batch payload's LSN and home from its canonical prefix
// without decoding the body — the recovery index's key. ok is false unless
// the payload starts with that prefix byte for byte and the home is plain
// printable ASCII with no escape; everything else (legacy frames without a
// home, HTML-escaped or non-ASCII IDs, anything odd) is for DecodeBatch to
// read, so a miss costs a decode, never correctness. A hit does not vouch for
// the body: a payload may repeat a key, which decodeIndexed catches.
func recordIndex(payload []byte) (lsn uint64, home string, ok bool) {
	rest, found := bytes.CutPrefix(payload, lsnKey)
	if !found {
		return 0, "", false
	}
	n := 0
	for ; n < len(rest) && '0' <= rest[n] && rest[n] <= '9'; n++ {
		d := uint64(rest[n] - '0')
		if lsn > (math.MaxUint64-d)/10 {
			return 0, "", false
		}
		lsn = lsn*10 + d
	}
	if n == 0 {
		return 0, "", false
	}
	rest, found = bytes.CutPrefix(rest[n:], homeKey)
	if !found {
		return 0, "", false
	}
	end := bytes.IndexByte(rest, '"')
	if end <= 0 {
		return 0, "", false
	}
	for _, c := range rest[:end] {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return 0, "", false
		}
	}
	return lsn, string(rest[:end]), true
}

// decodeIndexed decodes a record the index filed under (lsn, home). A body
// that does not decode, or decodes to another LSN or home than its prefix
// said, is corrupt.
func decodeIndexed(payload []byte, lsn uint64, home string, stats *Stats) (*Batch, error) {
	stats.noteDecoded()
	b, err := DecodeBatch(payload)
	if err != nil {
		return nil, err
	}
	if b.LSN != lsn || b.Home != home {
		return nil, fmt.Errorf("journal: record indexed as %q/%d decodes as %q/%d", home, lsn, b.Home, b.LSN)
	}
	return b, nil
}

// DecodeCheckpoint parses one checkpoint payload.
func DecodeCheckpoint(payload []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("journal: decoding checkpoint: %w", err)
	}
	return &c, nil
}
