package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the log every journal appends through: a GroupWriter owns one
// physical segment stream that any number of homes' journals append into,
// coalescing their commits into one fd/fsync cycle. Per-home fsync cost — the
// dominant term in the journaled benchmarks — becomes per-writer, and so does
// the descriptor count: a manager shard with a thousand journaled homes holds
// one active segment fd, not a thousand.
//
// Layout under the wal root (one tree per data directory, opened by the
// directory's one owner):
//
//	wal.lock            flock: one process owns the whole tree
//	ep<N>/w<i>/log-<seq>.seg
//
// Every boot opens a fresh epoch directory. That keeps the torn-tail
// contract intact across restarts: a crash tears at most the tail of the
// newest epoch's segments, and nothing is ever appended behind an old tear
// where a sequential scan would miss it. Within an epoch each writer's
// segments are strictly ordered by sequence number.
//
// Homes' records interleave freely inside a segment; each Batch frame
// carries its home ID (Batch.Home) and recovery demultiplexes by it. A
// home's checkpoint (which stays per-home, in its own directory) prunes its
// records from the shared state, and a segment file is deleted once every
// home it contains is checkpointed past the segment's last record for that
// home.

// WriterOptions tunes a GroupWriter fleet.
type WriterOptions struct {
	// SegmentBytes rotates a writer's active shared segment once it exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// SyncDelay is the group-commit window: when more than one home shares
	// the writer, its syncer waits this long after noticing new appends
	// before it flushes and fsyncs, so commits arriving close together ride
	// one disk sync instead of one each. Zero means DefaultSyncDelay;
	// negative disables the window (every cycle syncs immediately) — the
	// sync tier, see WriterOptionsFor. A lone attached home never waits — its
	// mailbox batching already coalesces, and the window would be pure
	// latency.
	SyncDelay time.Duration
	// OnSync, when non-nil, is called after each data fsync with the synced
	// segment's path and its size at that sync. Called with the writer's
	// internal lock held — the hook must not call back into the writer or
	// any attached journal.
	OnSync func(path string, syncedBytes int64)
	// Stats, when non-nil, receives the writer's fsync count. Usually the
	// same Stats the attached journals carry, so appends and syncs land in
	// one fleet-wide total.
	Stats *Stats
	// OnCycle, when non-nil, is called after each sync cycle with the bytes
	// that cycle made durable and the number of commit tickets it released —
	// the group-commit coalescing factor. Called with the writer's internal
	// lock held; the hook must not call back into the writer or any attached
	// journal (a plain histogram observation is the intended use).
	OnCycle func(bytes int64, commits int)
}

// DefaultSyncDelay is the default group-commit window. At ~1ms it is far
// below device-actuation latency but long enough to gather every busy
// home's appends into one fsync — on a loaded manager it cuts the fsync
// rate by an order of magnitude.
const DefaultSyncDelay = time.Millisecond

// sealedSeg is the shared state's record of one on-disk shared segment: the
// homes it contains and the highest LSN it holds for each, which is exactly
// what checkpoint-driven pruning and per-home tail reads need.
type sealedSeg struct {
	path  string
	homes map[string]uint64
	// scanned marks boot-scan files whose contents already live in
	// walState.tails; tailFor must not read them twice.
	scanned bool
}

// rawRec is one boot-scanned log record, indexed but not decoded: its LSN
// and its CRC-checked payload. The payload is the scan's own copy, not a
// slice of the segment image, so a home's records leave memory as soon as
// it checkpoints past them instead of pinning whole images until the last
// home in each has.
type rawRec struct {
	lsn     uint64
	payload []byte
}

// walState is the bookkeeping shared by every GroupWriter of one wal tree:
// the boot-scanned per-home tails from previous epochs (raw, in LSN order),
// the set of on-disk segments, and each home's checkpoint high-water mark.
type walState struct {
	mu      sync.Mutex
	lock    *os.File // flock on wal.lock: one process owns the tree
	refs    int      // live writers; the last release drops the flock
	tails   map[string][]rawRec
	segRecs []sealedSeg
	ckpt    map[string]uint64
}

func (st *walState) addSealed(s sealedSeg) {
	st.mu.Lock()
	st.segRecs = append(st.segRecs, s)
	st.mu.Unlock()
}

// checkpointed records that home is durable through lsn: its boot tail is
// pruned and every segment file whose contents are now fully covered (for
// all homes it holds) is deleted.
func (st *walState) checkpointed(home string, lsn uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if lsn > st.ckpt[home] {
		st.ckpt[home] = lsn
	}
	tail := st.tails[home]
	i := 0
	for i < len(tail) && tail[i].lsn <= st.ckpt[home] {
		i++
	}
	switch {
	case i == len(tail) && i > 0:
		delete(st.tails, home)
	case i > 0:
		st.tails[home] = tail[i:]
	}
	keep := st.segRecs[:0]
	for _, s := range st.segRecs {
		covered := true
		for h, max := range s.homes {
			if st.ckpt[h] < max {
				covered = false
				break
			}
		}
		if covered {
			removeSegment(s.path)
		} else {
			keep = append(keep, s)
		}
	}
	st.segRecs = keep
}

func (st *walState) release() {
	st.mu.Lock()
	st.refs--
	last := st.refs == 0
	st.mu.Unlock()
	if last && st.lock != nil {
		_ = st.lock.Close()
	}
}

// syncTicket parks one journal's Commit until the shared log's sync
// position covers pos — the "reply released only after its covering fsync
// lands" half of the group-commit contract.
//
// Each journal owns one ticket and reuses it for every wait: its commits are
// serial (its owner's loop issues them), so the ticket is parked at most once
// at a time. A parked ticket sits in the writer's tickets list until exactly
// one release — a covering sync, or failLocked — removes it and sends on
// done, whose one-slot buffer the waiter drains before it returns. done is
// therefore empty whenever the ticket is not parked, and no release of one
// wait can complete a later one.
type syncTicket struct {
	pos  int64
	done chan struct{} // capacity 1: the pending release, if any
	err  error
}

// release completes a parked ticket with err; the caller holds the writer's
// lock and has removed the ticket from the list.
func (t *syncTicket) release(err error) {
	t.err = err
	t.done <- struct{}{}
}

// GroupWriter owns one shared segment stream and the syncer goroutine that
// periodically fsyncs it. Journals attach to it via Options.Writer; their
// Append calls interleave frames into the active segment under the writer's
// lock, and their Commit calls wait (sync tiers) or window-check (async)
// against the writer's global sync position.
type GroupWriter struct {
	st    *walState
	dir   string
	sopts WriterOptions

	mu       sync.Mutex
	cond     *sync.Cond // wakes the syncer when appends or closes arrive
	seg      *os.File
	segPath  string
	segSeq   int
	segBytes int64
	segHomes map[string]uint64
	// pending buffers appended frames in memory; the syncer writes the whole
	// buffer with one write(2) immediately before each fsync, so a commit
	// window costs two syscalls total no matter how many homes' appends it
	// coalesced. A commit is only acknowledged after its covering fsync, so
	// bytes lost from the buffer in a crash were never acknowledged.
	pending []byte
	// Byte positions are global and monotonic across segment rotations (a
	// rotation only happens when the two are equal), so a commit ticket is
	// a single comparison regardless of which segment its bytes landed in.
	totalAppended int64
	totalSynced   int64
	tickets       []*syncTicket
	attached      map[*Journal]struct{}
	err           error
	closed        bool
	abandoned     bool

	syncerDone chan struct{}
}

const (
	walLockName     = "wal.lock"
	epochPrefix     = "ep"
	writerDirPrefix = "w"
	sharedSegPrefix = "log-"
)

// OpenWriters opens (creating if needed) the wal tree rooted at root and
// returns n GroupWriters in a fresh epoch — one per manager shard, or one
// for a single-home owner such as a crash drill. It indexes every previous
// epoch's records into per-home tails (stopping each writer's stream at the
// first torn frame) so journals that subsequently Open against these
// writers recover everything acknowledged before the last shutdown or
// crash; each Open decodes only its own records above its checkpoint. The
// returned writers share one flock on root/wal.lock; close every one of
// them (after closing the journals they serve) to release it.
func OpenWriters(root string, n int, opts WriterOptions) ([]*GroupWriter, error) {
	if n <= 0 {
		n = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncDelay == 0 {
		opts.SyncDelay = DefaultSyncDelay
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating wal root %s: %w", root, err)
	}
	lock, err := os.OpenFile(filepath.Join(root, walLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening wal lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("journal: wal root %s is in use by another process: %w", root, err)
	}
	st := &walState{
		lock:  lock,
		refs:  n,
		tails: make(map[string][]rawRec),
		ckpt:  make(map[string]uint64),
	}

	streams, epoch, err := walStreams(root)
	for i := 0; err == nil && i < len(streams); i++ {
		err = scanStream(streams[i], st, opts.Stats)
	}
	if err != nil {
		lock.Close()
		return nil, err
	}

	epochDir := filepath.Join(root, fmt.Sprintf("%s%d", epochPrefix, epoch))
	writers := make([]*GroupWriter, n)
	fail := func(err error) ([]*GroupWriter, error) {
		for _, w := range writers {
			if w != nil && w.seg != nil {
				_ = w.seg.Close()
			}
		}
		lock.Close()
		return nil, err
	}
	for i := range writers {
		dir := filepath.Join(epochDir, fmt.Sprintf("%s%d", writerDirPrefix, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(fmt.Errorf("journal: creating writer dir %s: %w", dir, err))
		}
		w := &GroupWriter{
			st:         st,
			dir:        dir,
			sopts:      opts,
			attached:   make(map[*Journal]struct{}),
			syncerDone: make(chan struct{}),
		}
		w.cond = sync.NewCond(&w.mu)
		if err := w.openSegLocked(); err != nil {
			return fail(err)
		}
		writers[i] = w
	}
	for _, w := range writers {
		go w.syncLoop()
	}
	return writers, nil
}

// walStreams lists the segment files of the wal tree rooted at root, one
// slice per writer stream (ep<N>/w<i>) in append order — epochs, then
// writers, then sequence numbers ascending — and the number of the first
// unused epoch. A missing root holds no streams.
func walStreams(root string) (streams [][]string, next int, err error) {
	epochs, err := numberedDirs(root, epochPrefix)
	if err != nil {
		return nil, 0, err
	}
	for _, ep := range epochs {
		next = ep + 1
		epDir := filepath.Join(root, fmt.Sprintf("%s%d", epochPrefix, ep))
		writers, err := numberedDirs(epDir, writerDirPrefix)
		if err != nil {
			return nil, 0, err
		}
		for _, wi := range writers {
			dir := filepath.Join(epDir, fmt.Sprintf("%s%d", writerDirPrefix, wi))
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, 0, fmt.Errorf("journal: listing %s: %w", dir, err)
			}
			var segs []string // sorted by name: zero-padded, so append order
			for _, e := range entries {
				if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, sharedSegPrefix) && strings.HasSuffix(n, segmentSuffix) {
					segs = append(segs, filepath.Join(dir, n))
				}
			}
			streams = append(streams, segs)
		}
	}
	return streams, next, nil
}

// numberedDirs returns the sorted numbers of dir's <prefix><n> subdirectories.
func numberedDirs(dir, prefix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	var ns []int
	for _, e := range entries {
		if n, ok := parsePrefixedInt(e.Name(), prefix); ok && e.IsDir() {
			ns = append(ns, n)
		}
	}
	sort.Ints(ns)
	return ns, nil
}

// scanStream indexes one writer stream's segments in sequence order into
// st's per-home tails, stopping at the first torn or corrupt frame —
// everything past a tear in this writer's stream was never acknowledged.
// Records are filed by the home and LSN their prefix names (recordIndex);
// only a record without that prefix is decoded here, and one whose home
// cannot be read even so ends the stream like a tear. A record filed under
// its home whose body turns out rotten ends only that home's replay, when
// tailFor decodes it. Streams are scanned in append order and no LSN the scan
// can see is ever written again (see Journal.recover), so each home's tail is
// in LSN order. Intact files that hold no record (an epoch that never
// appended) are removed, so boots and wakes do not accumulate empty epochs.
func scanStream(segs []string, st *walState, stats *Stats) error {
	for _, path := range segs {
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("journal: reading shared segment %s: %w", path, err)
		}
		homes := make(map[string]uint64)
		clean, serr := scanFrames(buf, func(payload []byte) error {
			stats.noteScanned()
			lsn, home, ok := recordIndex(payload)
			if !ok {
				stats.noteDecoded()
				b, derr := DecodeBatch(payload)
				if derr != nil {
					return derr
				}
				if b.Home == "" {
					return nil
				}
				lsn, home = b.LSN, b.Home
			}
			st.tails[home] = append(st.tails[home], rawRec{lsn: lsn, payload: bytes.Clone(payload)})
			if lsn > homes[home] {
				homes[home] = lsn
			}
			return nil
		})
		if len(homes) > 0 {
			st.segRecs = append(st.segRecs, sealedSeg{path: path, homes: homes, scanned: true})
		}
		if serr != nil || !clean {
			break
		}
		if len(homes) == 0 {
			removeSegment(path)
		}
	}
	return nil
}

// removeSegment deletes a segment file and, best-effort, the writer and
// epoch directories it leaves empty.
func removeSegment(path string) {
	_ = os.Remove(path)
	_ = os.Remove(filepath.Dir(path))
	_ = os.Remove(filepath.Dir(filepath.Dir(path)))
}

func parsePrefixedInt(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (w *GroupWriter) openSegLocked() error {
	path := filepath.Join(w.dir, fmt.Sprintf("%s%08d%s", sharedSegPrefix, w.segSeq, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening shared segment %s: %w", path, err)
	}
	w.seg = f
	w.segPath = path
	w.segSeq++
	w.segBytes = 0
	w.segHomes = make(map[string]uint64)
	return nil
}

func (w *GroupWriter) attach(j *Journal) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("journal: group writer is closed")
	}
	w.attached[j] = struct{}{}
	return nil
}

// detach removes the journal from the writer; with flush set it first waits
// for a covering sync (a clean Close leaves nothing behind the disk).
func (w *GroupWriter) detach(j *Journal, flush bool) error {
	var err error
	if flush {
		err = w.waitCovered(&j.ticket, j.wEnd)
	}
	w.mu.Lock()
	delete(w.attached, j)
	w.mu.Unlock()
	return err
}

// append buffers one framed batch for the active shared segment. The frame
// reaches the file in the syncer's next flush and is durable only once the
// writer's sync position passes the returned-to journal's wEnd; commit
// enforces that per the journal's tier.
func (w *GroupWriter) append(j *Journal, lsn uint64, frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("journal: group writer is closed")
	}
	w.pending = append(w.pending, frame...)
	n := int64(len(frame))
	w.segBytes += n
	w.totalAppended += n
	if lsn > w.segHomes[j.home] {
		w.segHomes[j.home] = lsn
	}
	j.wEnd = w.totalAppended
	if j.mode == ModeAsync {
		j.wUnflushed += n
	}
	return nil
}

// commit is Journal.Commit routed through the shared log: group-tier
// journals park on a ticket until the covering fsync lands; async-tier
// journals return immediately while inside their unflushed window and
// degrade to a blocking wait only when the window is exceeded.
func (w *GroupWriter) commit(j *Journal) error {
	if j.mode == ModeAsync {
		w.mu.Lock()
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return err
		}
		if j.wEnd <= w.totalSynced {
			w.mu.Unlock()
			return nil
		}
		if j.opts.AsyncWindowBytes < 0 || j.wUnflushed <= j.opts.AsyncWindowBytes {
			// Ack ahead of the disk; nudge the syncer so the window drains.
			w.cond.Broadcast()
			w.mu.Unlock()
			return nil
		}
		w.mu.Unlock()
	}
	return w.waitCovered(&j.ticket, j.wEnd)
}

// waitCovered blocks on t until the writer's sync position reaches pos,
// sharing whatever fsync cycle gets there first with every other waiting
// home — this is the coalescing point.
func (w *GroupWriter) waitCovered(t *syncTicket, pos int64) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if pos <= w.totalSynced {
		w.mu.Unlock()
		return nil
	}
	t.pos = pos
	w.tickets = append(w.tickets, t)
	w.cond.Broadcast()
	w.mu.Unlock()
	<-t.done
	return t.err
}

// flushLocked writes every buffered frame into the active segment with one
// write(2). Called by the syncer before each fsync and by tailFor before it
// reads the active segment image back.
func (w *GroupWriter) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pending) == 0 {
		return nil
	}
	if _, err := w.seg.Write(w.pending); err != nil {
		w.failLocked(fmt.Errorf("journal: writing shared segment: %w", err))
		return w.err
	}
	w.pending = w.pending[:0]
	return nil
}

// failLocked makes err sticky and releases every parked commit with it; the
// owning journals then degrade to memory-only through their owners'
// journalFail paths.
func (w *GroupWriter) failLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	for _, t := range w.tickets {
		t.release(w.err)
	}
	clear(w.tickets)
	w.tickets = w.tickets[:0]
	w.cond.Broadcast()
}

// syncLoop is the writer's syncer goroutine: whenever appended bytes are
// ahead of the sync position it fsyncs once — outside the lock, so appends
// from other homes keep landing and ride the next cycle — then completes
// every ticket the new position covers.
func (w *GroupWriter) syncLoop() {
	defer close(w.syncerDone)
	w.mu.Lock()
	for {
		for !w.closed && w.err == nil && w.totalSynced >= w.totalAppended {
			w.cond.Wait()
		}
		if w.err != nil || w.abandoned || (w.closed && w.totalSynced >= w.totalAppended) {
			w.mu.Unlock()
			return
		}
		if w.sopts.SyncDelay > 0 && len(w.attached) > 1 && !w.closed {
			// Group-commit window: let the homes that are about to commit
			// land their appends so one fsync covers them all.
			w.mu.Unlock()
			time.Sleep(w.sopts.SyncDelay)
			w.mu.Lock()
			if w.err != nil || w.abandoned {
				w.mu.Unlock()
				return
			}
		}
		if err := w.flushLocked(); err != nil {
			w.mu.Unlock()
			return
		}
		seg, segPath, segBytes, pos := w.seg, w.segPath, w.segBytes, w.totalAppended
		w.mu.Unlock()
		serr := seg.Sync()
		w.mu.Lock()
		if serr != nil {
			w.failLocked(fmt.Errorf("journal: syncing shared segment: %w", serr))
			w.mu.Unlock()
			return
		}
		cycleBytes := pos - w.totalSynced
		if pos > w.totalSynced {
			w.totalSynced = pos
		}
		w.sopts.Stats.noteFsync()
		if w.sopts.OnSync != nil {
			w.sopts.OnSync(segPath, segBytes)
		}
		commits := 0
		keep := w.tickets[:0]
		for _, t := range w.tickets {
			if t.pos <= w.totalSynced {
				t.release(nil)
				commits++
			} else {
				keep = append(keep, t)
			}
		}
		clear(w.tickets[len(keep):])
		w.tickets = keep
		if w.sopts.OnCycle != nil && cycleBytes > 0 {
			w.sopts.OnCycle(cycleBytes, commits)
		}
		// Credit async journals whose bytes are now fully covered. The
		// all-or-nothing reset over-counts a journal that appended during
		// the fsync, which errs on the side of syncing sooner — the ≤window
		// loss bound is preserved.
		for j := range w.attached {
			if j.mode == ModeAsync && j.wEnd <= w.totalSynced {
				j.wUnflushed = 0
			}
		}
		// Rotate only when the active segment is both oversized and fully
		// synced, so sealed segments are immutable and the global positions
		// never need resetting.
		if w.seg == seg && w.totalSynced == w.totalAppended && w.segBytes >= w.sopts.SegmentBytes {
			_ = w.seg.Close()
			w.st.addSealed(sealedSeg{path: w.segPath, homes: w.segHomes})
			if err := w.openSegLocked(); err != nil {
				w.failLocked(err)
				w.mu.Unlock()
				return
			}
		}
	}
}

// tailFor returns every complete batch the shared log holds for home with
// LSN above both after (the checkpoint the caller just loaded) and the
// home's checkpoint high-water mark, in LSN order: the boot-scanned records
// from previous epochs plus anything this process has sealed or is still
// writing. Complete-but-unsynced frames in the active segment are included
// deliberately — reading our own writes through the page cache is coherent,
// and a record that missed its covering fsync was never acknowledged, so
// replaying it is harmless. A poisoned home's supervised rebuild depends on
// seeing exactly this stream.
//
// Only those records are decoded: segments that hold nothing of home above
// the mark are not read, and other homes' frames in the ones that are get
// skipped by their prefix. A boot-scanned record of home that turns out
// rotten ends the returned tail below it (the caller's contiguity rule would
// stop there anyway).
//
// top is the highest LSN the log holds for home, decoded or not. A caller
// whose replay stops below it has met a branch it must not replay and must
// not write over (Journal.recover cuts it with a checkpoint at top).
func (w *GroupWriter) tailFor(home string, after uint64) (tail []*Batch, top uint64, err error) {
	// Writer lock, then shared state: the syncer seals the active segment
	// under the same two locks, so the snapshot below sees every segment of
	// this home exactly once — sealed, or still active.
	w.mu.Lock()
	var active string
	var activeBytes int64
	top = w.segHomes[home]
	w.st.mu.Lock()
	after = max(after, w.st.ckpt[home])
	// Boot-scanned records are never written once OpenWriters returns (the
	// tail is only ever resliced), so they are decoded after the unlock.
	boot := w.st.tails[home]
	boot = boot[sort.Search(len(boot), func(i int) bool { return boot[i].lsn > after }):]
	var paths []string
	for _, s := range w.st.segRecs {
		top = max(top, s.homes[home])
		if !s.scanned && s.homes[home] > after {
			paths = append(paths, s.path)
		}
	}
	w.st.mu.Unlock()
	if w.seg != nil && w.segHomes[home] > after {
		// Buffered frames are flushed first so the image includes them (a
		// supervised rebuild must see its own unsynced appends); the read
		// itself runs unlocked and is cut at this length, so no frame is
		// mid-write and other homes' appends do not wait for it.
		if err := w.flushLocked(); err != nil {
			w.mu.Unlock()
			return nil, 0, err
		}
		active, activeBytes = w.segPath, w.segBytes
	}
	w.mu.Unlock()

	// The three sources concatenate in LSN order: a home's records are
	// appended only above top (its recovery cuts any branch it did not
	// replay), and to one writer in segment order.
	tail = make([]*Batch, 0, len(boot))
	for _, r := range boot {
		b, err := decodeIndexed(r.payload, r.lsn, home, w.sopts.Stats)
		if err != nil {
			break
		}
		tail = append(tail, b)
	}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			continue // pruned by a checkpoint between the snapshot and the read
		}
		if tail, err = appendHomeBatches(tail, buf, home, after, w.sopts.Stats); err != nil {
			return nil, 0, err
		}
	}
	if active != "" {
		buf, err := os.ReadFile(active)
		if err != nil {
			return nil, 0, fmt.Errorf("journal: reading active shared segment: %w", err)
		}
		buf = buf[:min(int64(len(buf)), activeBytes)]
		if tail, err = appendHomeBatches(tail, buf, home, after, w.sopts.Stats); err != nil {
			return nil, 0, err
		}
	}
	return tail, top, nil
}

// holds reports whether the log has any record of home above lsn and its
// checkpoint high-water mark: in a previous epoch's tail, a sealed segment,
// or this writer's active one.
func (w *GroupWriter) holds(home string, lsn uint64) bool {
	w.st.mu.Lock()
	lsn = max(lsn, w.st.ckpt[home])
	tail := w.st.tails[home]
	found := len(tail) > 0 && tail[len(tail)-1].lsn > lsn
	for _, s := range w.st.segRecs {
		found = found || s.homes[home] > lsn
	}
	w.st.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return found || w.segHomes[home] > lsn
}

// appendHomeBatches scans one segment image this process wrote and appends
// home's complete batches with LSN above after to dst, decoding only those
// (and frames whose prefix names no home). A torn tail ends the scan
// cleanly, like any recovery scan; a frame that does not decode is an I/O
// failure of this process's own log and fails the read.
func appendHomeBatches(dst []*Batch, buf []byte, home string, after uint64, stats *Stats) ([]*Batch, error) {
	_, err := scanFrames(buf, func(payload []byte) error {
		stats.noteScanned()
		lsn, h, ok := recordIndex(payload)
		if ok && (h != home || lsn <= after) {
			return nil
		}
		var b *Batch
		var err error
		if ok {
			b, err = decodeIndexed(payload, lsn, h, stats)
		} else {
			stats.noteDecoded()
			b, err = DecodeBatch(payload)
		}
		if err != nil {
			return err
		}
		if b.Home == home && b.LSN > after {
			dst = append(dst, b)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal: scanning shared segment: %w", err)
	}
	return dst, nil
}

// checkpointed forwards a home's checkpoint high-water mark to the shared
// state, pruning its tail and any segment files now fully covered.
func (w *GroupWriter) checkpointed(home string, lsn uint64) {
	w.st.checkpointed(home, lsn)
}

// Err returns the writer's sticky error, if any (diagnostics/Status).
func (w *GroupWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the writer after a final covering sync: everything any
// attached journal appended is on disk when it returns. Close the journals
// first (the manager closes homes, then writers); the wal flock drops when
// the last writer of the fleet closes.
func (w *GroupWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.syncerDone
	w.mu.Lock()
	err := w.err
	if w.seg != nil {
		if cerr := w.seg.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: closing shared segment: %w", cerr)
		}
		w.seg = nil
	}
	w.mu.Unlock()
	w.st.release()
	return err
}

// Abandon tears the writer down without a final sync — the crash-drill
// (SIGKILL-equivalent) path: whatever the syncer already flushed survives,
// parked commits are released with an error, buffered frames are dropped
// (none of them were ever acknowledged).
func (w *GroupWriter) Abandon() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.abandoned = true
	w.failLocked(fmt.Errorf("journal: group writer abandoned"))
	w.mu.Unlock()
	<-w.syncerDone
	w.mu.Lock()
	if w.seg != nil {
		_ = w.seg.Close()
		w.seg = nil
	}
	w.mu.Unlock()
	w.st.release()
}
