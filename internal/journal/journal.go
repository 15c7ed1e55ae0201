// Package journal is SafeHome's per-home durability layer: a CRC-framed
// write-ahead journal plus checkpointing, giving a home runtime crash
// recovery without giving up its single-writer design.
//
// There is one on-disk format at run time (an older directory is converted
// once, before any journal opens it: UpgradeHome). Every journal appends
// through a GroupWriter (group.go): a segmented log that any number of homes
// share, each frame tagged with its home. One owner per data directory — a
// manager (the hub is a one-home manager), a crash drill or a benchmark —
// opens the writer fleet with OpenWriters and hands each journal its writer
// (Options.Writer); the fleet's wal.lock is the single-owner rule, and a
// journal never opens a log of its own. Checkpoint images and sealed routine
// chunks stay per home, in the home's own directory; the checkpoint's head
// (Head) is the home's durable record.
//
// The home runtime appends one Batch record per mailbox drain — accepted
// submissions, finished routine outcomes, committed device-state changes and
// sequenced activity events — and commits once per batch (group commit), so
// the fsync cost is amortized over everything the drain produced rather
// than paid per operation. Periodically the runtime cuts a Checkpoint
// (derived from its immutable Snapshot) after which the log drops the home's
// older records; recovery therefore reads one checkpoint plus a bounded
// journal tail, never the full history.
//
// Recovery semantics follow the paper's failure-handling story: everything
// acknowledged before the crash — finished results, committed device
// states, event sequence numbers — comes back exactly, while routines that
// were still in flight are surfaced to the runtime as open records, which
// it aborts (with rollback to their pre-routine committed states, which is
// what the recovered committed view already is: a routine's writes only
// enter the committed states when it commits).
//
// All methods are single-goroutine: the journal is owned by the home
// runtime's loop, exactly like the controller it makes durable.
//
// See ARCHITECTURE.md at the repository root ("Durability") for the file
// format and lifecycle.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"safehome/internal/device"
	"safehome/internal/jsonenc"
)

// Mode selects a journal's durability tier: how far an acknowledged
// operation may trail the disk. The tiers are commit policies over the one
// shared-log mechanism, not layouts.
type Mode int

const (
	// ModeDefault lets the owner pick: Open and the hub resolve it to
	// sync, a multi-home manager to group.
	ModeDefault Mode = iota
	// ModeSync is acknowledged ⇒ on disk with no group-commit window: the
	// writer starts an fsync as soon as a commit is waiting (see
	// WriterOptionsFor). Commits that arrive while one is in flight still
	// share the next cycle.
	ModeSync
	// ModeGroup is the same contract — a drain's replies are released only
	// after the covering fsync lands — with the writer's SyncDelay window
	// open, so many homes' commits ride one fsync.
	ModeGroup
	// ModeAsync acknowledges before the fsync. Batches become durable when
	// the writer's next sync cycle lands (frames wait in its buffer until
	// then); a crash may lose up to AsyncWindowBytes of acknowledged tail —
	// always a clean suffix of the history, never a reorder.
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeGroup:
		return "group"
	case ModeAsync:
		return "async"
	default:
		return "default"
	}
}

// ParseMode parses a durability-tier name as accepted by the -durability
// flags: "sync", "group" or "async".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sync":
		return ModeSync, nil
	case "group":
		return ModeGroup, nil
	case "async":
		return ModeAsync, nil
	default:
		return ModeDefault, fmt.Errorf("journal: unknown durability mode %q (want sync, group or async)", s)
	}
}

// ResolveMode reports the tier opts selects, substituting def for
// ModeDefault.
func ResolveMode(opts Options, def Mode) Mode {
	if opts.Mode == ModeDefault {
		return def
	}
	return opts.Mode
}

// WriterOptionsFor derives the options of the writer fleet that serves
// journals at the given tier: sync closes the group-commit window. Owners
// add the segment size, hooks and stats they want.
func WriterOptionsFor(mode Mode) WriterOptions {
	var w WriterOptions
	if mode == ModeSync {
		w.SyncDelay = -1
	}
	return w
}

// Options tunes a journal. The zero value uses the defaults.
type Options struct {
	// CheckpointBytes is how many journal bytes may accumulate since the last
	// checkpoint before ShouldCheckpoint reports true (default 1 MiB). The
	// owner decides when to actually cut one (the runtime does it between
	// batches, from its published snapshot).
	CheckpointBytes int64
	// Mode selects the durability tier (see the Mode constants): whether
	// Commit waits for its covering fsync (sync, group) or acknowledges ahead
	// of it (async). ModeDefault resolves to sync. Whether waiting commits
	// gather behind a window is the writer's SyncDelay — an owner opening a
	// fleet derives it from the tier with WriterOptionsFor.
	Mode Mode
	// AsyncWindowBytes bounds how many acknowledged-but-unsynced bytes
	// ModeAsync may accumulate before a commit waits for a sync (default 256
	// KiB). Negative means unbounded: no commit ever waits; the writer's
	// syncer still drains in the background.
	AsyncWindowBytes int64
	// HomeID tags this journal's batches in the log; required. The home
	// runtime defaults it to the home's configured ID.
	HomeID string
	// Writer is the GroupWriter this journal appends through; required. Its
	// owner opened the fleet for the whole data directory (OpenWriters) and
	// closes it after the journals it serves. The journal holds no descriptor
	// and no lock of its own — the writer's wal.lock owns the whole tree —
	// which is what bounds descriptors at high tenant counts.
	Writer *GroupWriter
	// store, when non-nil, is where checkpoint images and sealed routine
	// chunks live instead of the journal directory: a test hook. A boot
	// finds a home by the checkpoint in its directory (ReadHead).
	store segmentStore
	// TestInjectErr, when non-nil, is consulted at the start of each write
	// path — op is "append", "commit" or "checkpoint" — and a non-nil return
	// is surfaced as that operation's error without touching the disk. It
	// exists so tests can drive the owner's degrade-to-memory-only handling
	// (a full disk, a yanked SD card) deterministically.
	TestInjectErr func(op string) error
}

// Default thresholds.
const (
	DefaultSegmentBytes     = 4 << 20
	DefaultCheckpointBytes  = 1 << 20
	DefaultAsyncWindowBytes = 256 << 10
	// DefaultSealSize is how many terminal routines an owner seals per
	// immutable chunk (four of the visibility layer's 64-entry export
	// chunks): small enough that the unsealed tail a checkpoint carries
	// stays bounded, large enough that chunk objects are worth shipping.
	DefaultSealSize = 256
)

func (o Options) normalized() Options {
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = DefaultCheckpointBytes
	}
	if o.AsyncWindowBytes == 0 {
		o.AsyncWindowBytes = DefaultAsyncWindowBytes
	}
	return o
}

const (
	checkpointName = "checkpoint.ckpt"
	chunkPrefix    = "ckchunk-"
	chunkSuffix    = ".ckpt"
	segmentSuffix  = ".seg"
	// walDir is where an owner roots its fleet in a data directory.
	walDir = "wal"
)

// chunkName names the sealed-chunk object with the given index.
func chunkName(index int) string {
	return fmt.Sprintf("%s%08d%s", chunkPrefix, index, chunkSuffix)
}

// Journal is an open write-ahead journal rooted at one home's data
// directory. It is not safe for concurrent use; the home runtime's loop
// goroutine owns it.
type Journal struct {
	dir  string
	opts Options
	mode Mode
	open bool

	lsn       uint64      // last assigned LSN
	sinceCkpt int64       // journal bytes appended since the last checkpoint
	frame     jsonenc.Buf // reused batch frame: header, then the payload encoded behind it
	ticket    syncTicket  // reused commit wait: the journal's commits are serial

	store    segmentStore // checkpoint + sealed-chunk objects (DirStore default)
	sealed   int          // routines covered by durable sealed chunks
	sealSize int          // chunk size the sealed prefix was cut at (0 = none yet)

	// The journal owns no fd of its own: frames carry home and land in the
	// writer's segments. wEnd and wUnflushed are guarded by writer.mu, not by
	// the loop.
	writer     *GroupWriter
	stats      *Stats // the writer's (WriterOptions.Stats): appends and checkpoints count beside its fsyncs
	home       string
	wEnd       int64 // writer offset just past this journal's last appended byte
	wUnflushed int64 // async: appended bytes not yet covered by a writer sync
}

// Recovered is everything a journal recovery reconstructed: the dense
// routine history (IDs 1..len(Routines), open records last seen unfinished),
// the committed device states, and the retained activity-event window with
// its sequence base.
type Recovered struct {
	Routines []RoutineRecord
	States   map[device.ID]device.State
	Events   []EventRecord
	FirstSeq uint64 // sequence number of Events[0]; NextSeq is FirstSeq+len(Events)
	LSN      uint64 // last applied record; appends continue after it
	// Bank holds the stored routine definitions in first-store order (later
	// stores update in place); Triggers the still-armed scheduled triggers by
	// handle; NextTrigger the highest handle ever issued.
	Bank        []BankRecord
	Triggers    map[int64]TriggerRecord
	NextTrigger int64
	// Sealed is how many leading routines the recovery read out of sealed
	// chunk objects (always a multiple of SealSize; zero for pre-chunk
	// checkpoints). The owner's next checkpoint continues sealing from
	// here instead of re-serializing them.
	Sealed   int
	SealSize int
	// Devices is what the checkpoint's head lists and Replayed how many log
	// records were applied above it: facts about the record, not the state,
	// which tell an owner whether the record needs rewriting.
	Devices  []device.Info `json:"-"`
	Replayed int           `json:"-"`
}

// NextSeq returns the sequence number the next activity event must get for
// cursors to stay strictly monotonic across the restart.
func (r *Recovered) NextSeq() uint64 {
	if r.FirstSeq == 0 {
		return 1
	}
	return r.FirstSeq + uint64(len(r.Events))
}

// Open opens (creating if needed) the journal in dir and recovers its
// contents: the newest checkpoint plus every complete journal record after
// it. It returns the journal positioned for appending and the recovered
// state, which is nil when the directory holds no durable state yet. A torn
// or corrupt record ends replay at the last acknowledged batch — exactly
// the write-ahead-log contract. When replay stops below records the log
// still holds (a rotten record of this home), Open checkpoints the replayed
// state at the highest of them before returning, so that branch is never
// replayed or written over.
//
// Exactly one process may own a home's journal: a second opener (e.g. a
// restart racing a hung predecessor) would recover to the same LSN and
// reuse it. The writer's wal.lock enforces that for the whole tree its
// owner serves, so Open requires Options.Writer (and Options.HomeID, which
// tags the home's frames in it). flock is released automatically when the
// holder dies, so a SIGKILL'd hub never bricks its own restart.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if opts.Writer == nil || opts.HomeID == "" {
		return nil, nil, errors.New("journal: Open needs the owner's Options.Writer and an Options.HomeID")
	}
	opts = opts.normalized()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts, mode: ResolveMode(opts, ModeSync), writer: opts.Writer, stats: opts.Writer.sopts.Stats, home: opts.HomeID}
	j.ticket.done = make(chan struct{}, 1)
	j.store = opts.store
	if j.store == nil {
		j.store = DirStore{Dir: dir}
	}

	rec, found, err := j.recover()
	if err == nil {
		err = j.writer.attach(j)
	}
	if err != nil {
		j.Abandon()
		return nil, nil, err
	}
	j.lsn = rec.LSN
	j.open = true
	if !found {
		rec = nil
	}
	return j, rec, nil
}

// Mode returns the resolved durability tier the journal runs at.
func (j *Journal) Mode() Mode { return j.mode }

// recover loads the checkpoint (if any) and replays the home's records in
// the log above it.
func (j *Journal) recover() (*Recovered, bool, error) {
	ck, err := loadCheckpoint(j.store, j.dir)
	if err != nil {
		return nil, false, err
	}
	rec, err := j.image(ck)
	if err != nil {
		return nil, false, err
	}
	tail, top, err := j.writer.tailFor(j.home, rec.LSN)
	if err != nil {
		return nil, false, err
	}
	found := ck != nil || len(tail) > 0
	if err := replay(rec, tail); err != nil {
		return nil, false, err
	}
	if top > rec.LSN {
		// Replay stopped below records the log still holds: behind a rotten
		// record. Cut that branch before the home appends again: a checkpoint
		// of the replayed state stamped at the branch's highest LSN covers it,
		// so no later recovery replays it (even once the records that follow
		// are pruned), its segments become prunable, and the home's next
		// record gets an LSN no other record in the log has.
		rec.LSN = top
		if err := j.publishCheckpoint(checkpointOf(rec)); err != nil {
			return nil, false, err
		}
		found = true
	}
	return rec, found, nil
}

// image is the state a checkpoint holds (empty at LSN 0 for none), its
// sealed prefix read back from the chunks it references.
func (j *Journal) image(ck *Checkpoint) (*Recovered, error) {
	rec := &Recovered{States: make(map[device.ID]device.State), Triggers: make(map[int64]TriggerRecord)}
	if ck == nil {
		return rec, nil
	}
	prefix, err := j.loadSealed(ck)
	if err != nil {
		return nil, err
	}
	rec.LSN, rec.FirstSeq, rec.NextTrigger, rec.Devices = ck.LSN, ck.FirstSeq, ck.NextTrigger, ck.Head.Devices
	rec.Routines = append(prefix, ck.Routines...)
	rec.Events = append(rec.Events, ck.Events...)
	rec.Bank = append(rec.Bank, ck.Bank...)
	for _, s := range ck.States {
		rec.States[s.Device] = s.State
	}
	for _, t := range ck.Triggers {
		rec.Triggers[t.Handle] = t
	}
	rec.Sealed, rec.SealSize = ck.Sealed, ck.SealSize
	j.sealed, j.sealSize = ck.Sealed, ck.SealSize
	return rec, nil
}

// replay applies the batches that continue rec in LSN order, skipping those
// it already covers and stopping at the first gap (a tear means everything
// past it was never acknowledged). Then it checks that the routine history
// is a dense 1..N prefix, the invariant controller preloading (and O(1)
// result lookup by ID) depends on: submissions are journaled in assignment
// order within and across batches, so anything else is corruption.
func replay(rec *Recovered, tail []*Batch) error {
	for _, b := range tail {
		if b.LSN == rec.LSN+1 {
			applyBatch(rec, b)
			rec.Replayed++
		} else if b.LSN > rec.LSN {
			break
		}
	}
	for i, r := range rec.Routines {
		if int(r.ID) != i+1 {
			return fmt.Errorf("journal: recovered routine history is not dense at index %d (id %d)", i, r.ID)
		}
	}
	return nil
}

// checkpointOf is the checkpoint image of a recovered state.
func checkpointOf(rec *Recovered) *Checkpoint {
	ck := &Checkpoint{
		LSN:         rec.LSN,
		Sealed:      rec.Sealed,
		SealSize:    rec.SealSize,
		Routines:    rec.Routines[rec.Sealed:],
		FirstSeq:    rec.FirstSeq,
		Events:      rec.Events,
		Bank:        rec.Bank,
		NextTrigger: rec.NextTrigger,
		Head:        Head{Devices: rec.Devices},
	}
	for d, s := range rec.States {
		ck.States = append(ck.States, StateEntry{Device: d, State: s})
	}
	for _, t := range rec.Triggers {
		ck.Triggers = append(ck.Triggers, t)
	}
	return ck
}

// SegmentFiles lists the segment files of the log tree of the fleet rooted
// at dir/wal in append order. Crash drills use it to measure and cut the
// journal tail without knowing the layout.
func SegmentFiles(dir string) ([]string, error) {
	streams, _, err := walStreams(filepath.Join(dir, walDir))
	var segs []string
	for _, stream := range streams {
		segs = append(segs, stream...)
	}
	return segs, err
}

// ReadHead reads only the head of the checkpoint in dir (its first frame,
// CRC-checked): nil without a checkpoint, an error for one with no head.
// A home is frozen when the head carries a summary and nothing of the home
// lies above the checkpoint in the log of writerFor(home), the writer its
// journal would append through (consulted only for a head with a summary).
// ReadHead drops the summary of a home that ran after its freeze, so
// Head.Frozen is set only for a frozen home.
func ReadHead(dir string, writerFor func(home string) *GroupWriter) (*Head, error) {
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: reading checkpoint head: %w", err)
	}
	defer f.Close()
	frame := make([]byte, frameHeaderLen)
	_, err = io.ReadFull(f, frame)
	if size := binary.LittleEndian.Uint32(frame); err == nil && size <= maxFramePayload {
		frame = append(frame, make([]byte, size)...)
		_, err = io.ReadFull(f, frame[frameHeaderLen:])
	}
	// An image with no head decodes as a head with no Home.
	h := new(Head)
	if clean, _ := scanFrames(frame, func(p []byte) error { return json.Unmarshal(p, h) }); !clean || h.Home == "" {
		return nil, fmt.Errorf("journal: checkpoint head in %s is corrupt", dir)
	}
	if h.Frozen != nil && writerFor(h.Home).holds(h.Home, h.LSN) {
		h.Frozen = nil
	}
	return h, nil
}

// PublishHead makes h the head of the checkpoint in dir, keeping its image
// (an empty one at LSN 0 when dir has none) and taking h.LSN from it. No
// journal may be open on dir.
func PublishHead(dir string, h Head) error {
	store := DirStore{Dir: dir}
	ck, err := loadCheckpoint(store, dir)
	if err != nil {
		return err
	}
	if ck == nil {
		ck = &Checkpoint{}
	}
	ck.Head = h
	file, err := checkpointFile(ck)
	if err == nil {
		err = store.Put(checkpointName, file)
	}
	return err
}

// loadCheckpoint reads the checkpoint file in store, nil when there is
// none: the head frame, then the image frame.
func loadCheckpoint(store segmentStore, dir string) (*Checkpoint, error) {
	frames, err := checkpointFrames(store, dir)
	if frames == nil || err != nil {
		return nil, err
	}
	corrupt := fmt.Errorf("journal: checkpoint for %s is corrupt", dir)
	if len(frames) != 2 {
		return nil, corrupt
	}
	ck, err := DecodeCheckpoint(frames[1])
	if err != nil || json.Unmarshal(frames[0], &ck.Head) != nil || ck.Head.LSN != ck.LSN || ck.Head.Home == "" {
		return nil, corrupt
	}
	return ck, nil
}

// checkpointFrames returns the frames of the checkpoint file in store: nil
// when there is none (an empty file holds an empty list), an error unless
// the file scans cleanly.
func checkpointFrames(store segmentStore, dir string) ([][]byte, error) {
	buf, err := store.Get(checkpointName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: reading checkpoint: %w", err)
	}
	frames := [][]byte{}
	if clean, _ := scanFrames(buf, func(payload []byte) error {
		frames = append(frames, payload)
		return nil
	}); !clean {
		return nil, fmt.Errorf("journal: checkpoint for %s is corrupt", dir)
	}
	return frames, nil
}

// loadSealed fetches and validates the sealed-chunk prefix a checkpoint
// references: chunks 0..Sealed/SealSize-1, each a dense run of terminal
// records. A missing or corrupt chunk is unrecoverable history the
// checkpoint promised was durable, so it fails recovery loudly rather than
// silently resurrecting a truncated past.
func (j *Journal) loadSealed(ck *Checkpoint) ([]RoutineRecord, error) {
	if ck.Sealed == 0 {
		return nil, nil
	}
	if ck.SealSize <= 0 || ck.Sealed%ck.SealSize != 0 {
		return nil, fmt.Errorf("journal: checkpoint seals %d routines with invalid chunk size %d", ck.Sealed, ck.SealSize)
	}
	prefix := make([]RoutineRecord, 0, ck.Sealed)
	for idx := 0; idx < ck.Sealed/ck.SealSize; idx++ {
		buf, err := j.store.Get(chunkName(idx))
		if err != nil {
			return nil, fmt.Errorf("journal: sealed chunk %d: %w", idx, err)
		}
		var chunk *sealedChunk
		clean, err := scanFrames(buf, func(payload []byte) error {
			c, err := decodeSealedChunk(payload)
			if err != nil {
				return err
			}
			chunk = c
			return nil
		})
		if err != nil || !clean || chunk == nil {
			return nil, fmt.Errorf("journal: sealed chunk %d is corrupt", idx)
		}
		if chunk.Index != idx || len(chunk.Routines) != ck.SealSize {
			return nil, fmt.Errorf("journal: sealed chunk %d holds index %d with %d routines (want %d)",
				idx, chunk.Index, len(chunk.Routines), ck.SealSize)
		}
		prefix = append(prefix, chunk.Routines...)
	}
	return prefix, nil
}

func applyBatch(rec *Recovered, b *Batch) {
	rec.LSN = b.LSN
	for _, r := range b.Submits {
		if int(r.ID) == len(rec.Routines)+1 {
			rec.Routines = append(rec.Routines, r)
		}
	}
	for _, r := range b.Finishes {
		if i := int(r.ID) - 1; i >= 0 && i < len(rec.Routines) {
			rec.Routines[i] = r
		}
	}
	for _, s := range b.States {
		rec.States[s.Device] = s.State
	}
	if len(b.Events) > 0 {
		if len(rec.Events) == 0 {
			rec.FirstSeq = b.FirstSeq
			rec.Events = append(rec.Events, b.Events...)
		} else if b.FirstSeq == rec.FirstSeq+uint64(len(rec.Events)) {
			rec.Events = append(rec.Events, b.Events...)
		} else {
			// A sequence gap means the window before this batch was already
			// evicted when it was journaled; keep the newest window.
			rec.FirstSeq = b.FirstSeq
			rec.Events = append(rec.Events[:0], b.Events...)
		}
	}
	for _, bank := range b.Bank {
		upsertBank(rec, bank)
	}
	// Arms before cancels: handles are monotonic and never re-armed after a
	// cancel, so within one batch a cancel always logically follows any arm
	// of the same handle.
	for _, t := range b.TrigArms {
		rec.Triggers[t.Handle] = t
		if t.Handle > rec.NextTrigger {
			rec.NextTrigger = t.Handle
		}
	}
	for _, h := range b.TrigCancels {
		delete(rec.Triggers, h)
		if h > rec.NextTrigger {
			rec.NextTrigger = h
		}
	}
}

// upsertBank applies one bank store: definitions update in place so the
// recovered bank keeps first-store order, matching the live Bank.
func upsertBank(rec *Recovered, b BankRecord) {
	for i := range rec.Bank {
		if rec.Bank[i].Name == b.Name {
			rec.Bank[i] = b
			return
		}
	}
	rec.Bank = append(rec.Bank, b)
}

// --- appending -------------------------------------------------------------------

// Append assigns the batch the next LSN and hands its frame to the writer.
// The record is durable only after the following Commit; the runtime appends
// and commits once per mailbox drain (group commit).
func (j *Journal) Append(b *Batch) error {
	if !j.open {
		return fmt.Errorf("journal: closed")
	}
	if j.opts.TestInjectErr != nil {
		if err := j.opts.TestInjectErr("append"); err != nil {
			return fmt.Errorf("journal: writing batch: %w", err)
		}
	}
	b.LSN = j.lsn + 1
	b.Home = j.home
	// The batch is encoded straight into the reused frame; a refusal
	// degrades the home to memory-only rather than write what recovery
	// could not read back.
	j.frame.B, j.frame.Bad = j.frame.B[:0], false
	start := beginFrame(&j.frame)
	encodeBatch(&j.frame, b)
	if err := endFrame(&j.frame, start, "batch"); err != nil {
		return err
	}
	frame := j.frame.B
	if err := j.writer.append(j, b.LSN, frame); err != nil {
		return fmt.Errorf("journal: writing batch: %w", err)
	}
	j.lsn = b.LSN
	j.sinceCkpt += int64(len(frame))
	j.stats.noteAppend(int64(len(frame)))
	return nil
}

// Commit makes every appended record durable per the journal's tier: sync
// and group park the caller on a commit ticket until the writer's covering
// fsync lands; async returns immediately unless the unflushed window is
// exceeded. The runtime calls it once per mailbox drain, before releasing
// that drain's replies.
func (j *Journal) Commit() error {
	if !j.open {
		return fmt.Errorf("journal: closed")
	}
	if j.opts.TestInjectErr != nil {
		if err := j.opts.TestInjectErr("commit"); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return j.writer.commit(j)
}

// LSN returns the last assigned record LSN.
func (j *Journal) LSN() uint64 { return j.lsn }

// SinceCheckpoint returns the journal bytes appended since the last
// checkpoint.
func (j *Journal) SinceCheckpoint() int64 { return j.sinceCkpt }

// ShouldCheckpoint reports whether enough journal has accumulated since the
// last checkpoint to be worth cutting a new one.
func (j *Journal) ShouldCheckpoint() bool { return j.sinceCkpt >= j.opts.CheckpointBytes }

// Checkpoint durably writes a full state image (write to a temporary file,
// fsync, atomic rename) stamped with the journal's current LSN and headed
// by the journal's home and ck's devices and frozen summary, then lets the
// log drop the home's records the checkpoint covers. After a successful
// checkpoint, recovery reads the checkpoint plus only the records appended
// after this call.
func (j *Journal) Checkpoint(ck *Checkpoint) error {
	if !j.open {
		return fmt.Errorf("journal: closed")
	}
	if j.opts.TestInjectErr != nil {
		if err := j.opts.TestInjectErr("checkpoint"); err != nil {
			return fmt.Errorf("journal: writing checkpoint: %w", err)
		}
	}
	ck.LSN = j.lsn
	return j.publishCheckpoint(ck)
}

// publishCheckpoint is Checkpoint for an image already stamped with its LSN.
func (j *Journal) publishCheckpoint(ck *Checkpoint) error {
	// The image is encoded into a frame of its own, not the journal's reused
	// one: a home between checkpoints must not carry one image's worth of
	// buffer. An image over the frame limit would brick the next restart;
	// refusing degrades the home to memory-only (the owner's journalFail
	// path) with the state on disk still recoverable. With incremental
	// checkpoints the image carries only the unsealed routine tail, so
	// hitting that guard takes a pathological single-drain burst, not
	// accumulated history.
	ck.Head.Home = j.home
	file, err := checkpointFile(ck)
	if err != nil {
		return err
	}

	// The store's Put is atomic and durable in every tier, async included:
	// journal records at or below the checkpoint's LSN are truncated right
	// after it lands, so an undurable checkpoint would turn the bounded
	// async window into unbounded loss.
	if err := j.store.Put(checkpointName, file); err != nil {
		return fmt.Errorf("journal: publishing checkpoint: %w", err)
	}
	j.stats.noteCheckpoint()
	j.sealed = ck.Sealed
	j.sealSize = ck.SealSize

	// The log can drop this home's records at or below the checkpoint.
	j.writer.checkpointed(j.home, ck.LSN)
	j.sinceCkpt = 0
	return nil
}

// SealedRoutines returns how many leading routines are covered by durable
// sealed chunks (recovered from the last checkpoint, advanced by
// Checkpoint). The owner seals forward from here.
func (j *Journal) SealedRoutines() int { return j.sealed }

// SealedChunkSize returns the chunk size the sealed prefix was cut at (0
// when nothing is sealed yet). An owner must keep sealing at this size; a
// fresh prefix may pick any size.
func (j *Journal) SealedChunkSize() int { return j.sealSize }

// SealChunk durably writes one immutable chunk object covering routines
// Index*len(recs)+1 .. (Index+1)*len(recs), all terminal. The chunk becomes
// live only when a later Checkpoint references it via Sealed/SealSize; a
// crash in between leaves an orphan object that the next seal overwrites
// with identical content (terminal records never change), so re-sealing is
// idempotent. Called by the owner between batches, off the same immutable
// snapshot the checkpoint is cut from.
func (j *Journal) SealChunk(index int, recs []RoutineRecord) error {
	if !j.open {
		return fmt.Errorf("journal: closed")
	}
	if j.opts.TestInjectErr != nil {
		if err := j.opts.TestInjectErr("seal"); err != nil {
			return fmt.Errorf("journal: writing sealed chunk: %w", err)
		}
	}
	for _, r := range recs {
		if r.Open() {
			return fmt.Errorf("journal: sealing open routine %d", r.ID)
		}
	}
	var w jsonenc.Buf
	start := beginFrame(&w)
	encodeChunk(&w, &sealedChunk{Index: index, Routines: recs})
	if err := endFrame(&w, start, "sealed chunk"); err != nil {
		return err
	}
	if err := j.store.Put(chunkName(index), w.B); err != nil {
		return fmt.Errorf("journal: writing sealed chunk: %w", err)
	}
	return nil
}

// Close makes everything appended durable (regardless of tier — a clean
// close leaves nothing behind the disk) and detaches from the writer. The
// journal is unusable afterwards; the writer stays its owner's.
func (j *Journal) Close() error {
	if !j.open {
		return nil
	}
	j.open = false
	return j.writer.detach(j, true)
}

// Abandon detaches without syncing — the SIGKILL-equivalent teardown used
// by crash drills and the poison path: whatever the writer already synced
// survives, nothing else is flushed. The writer keeps running for its
// other homes; a drill that kills the whole process abandons it too.
func (j *Journal) Abandon() {
	if j.open {
		_ = j.writer.detach(j, false)
		j.open = false
	}
}
