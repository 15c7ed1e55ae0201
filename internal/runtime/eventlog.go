package runtime

import (
	"safehome/internal/visibility"
)

// eventLog is the home's activity log, stored as fixed-size append-only
// chunks so the read path can expose it without copying it on every poll:
// the loop goroutine appends events and occasionally drops the oldest chunk;
// a published view shares the chunks and bounds how far into the open chunk
// a reader may look. Every event has a monotonically increasing sequence
// number, so pollers can fetch only the tail with EventsSince.
//
// Entries below a published bound are never rewritten (eviction drops whole
// chunks from a private spine copy, never mutates one), which is what makes
// the shared chunks safe to read from any goroutine.

// eventChunkCap is the maximum chunk size. Chunks are sized to a quarter of
// the configured cap (clamped to [1, eventChunkCap]): eviction drops whole
// chunks, so the retained window dips to cap-chunkSize+1 right after an
// eviction — quarter-cap chunks guarantee at least ~3/4 of the configured
// window is always retained.
const eventChunkCap = 128

type eventChunk struct {
	ev []visibility.Event // fixed length; [i] written once by the loop
}

// eventsView is an immutable window over the log: the chunk spine is a
// private copy, and n bounds how many events (from firstSeq on) the holder
// may read.
type eventsView struct {
	chunks    []*eventChunk
	chunkSize int
	firstSeq  uint64 // sequence number of chunks[0].ev[0]; the first event ever is seq 1
	n         int    // events readable across the window
}

// eventLog is loop-owned; only view results escape to other goroutines.
type eventLog struct {
	capEvents int
	chunkSize int
	chunks    []*eventChunk
	firstSeq  uint64
	n         int
	dirty     bool // appended since the last view() — publish can skip clean logs
	last      eventsView
}

func newEventLog(capEvents int) *eventLog {
	if capEvents <= 0 {
		return nil
	}
	chunkSize := capEvents / 4
	if chunkSize > eventChunkCap {
		chunkSize = eventChunkCap
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	return &eventLog{capEvents: capEvents, chunkSize: chunkSize, firstSeq: 1}
}

// append records one event, evicting the oldest chunk when the log exceeds
// its cap. Runs on the loop goroutine.
func (l *eventLog) append(e visibility.Event) {
	if l.n == len(l.chunks)*l.chunkSize {
		l.chunks = append(l.chunks, &eventChunk{ev: make([]visibility.Event, l.chunkSize)})
	}
	l.chunks[l.n/l.chunkSize].ev[l.n%l.chunkSize] = e
	l.n++
	if l.n > l.capEvents {
		// The head chunk is necessarily full (chunks fill in order and
		// chunkSize <= capEvents): drop it whole. The spine slice is private
		// to the loop — views hold their own copies — so reslicing is safe.
		l.chunks = l.chunks[1:]
		l.n -= l.chunkSize
		l.firstSeq += uint64(l.chunkSize)
	}
	l.dirty = true
}

// nextSeqLive returns the sequence number the next appended event will get.
// Unlike eventsView.nextSeq it reads the live log, so the loop can stamp
// journal records before the next publish.
func (l *eventLog) nextSeqLive() uint64 {
	if l == nil {
		return 1
	}
	return l.firstSeq + uint64(l.n)
}

// restore seeds a fresh log with a recovered event window: firstSeq is the
// sequence number of events[0], so cursors handed out before the crash stay
// valid and strictly monotonic afterwards. Must run before any append (the
// constructors call it during journal recovery).
func (l *eventLog) restore(firstSeq uint64, events []visibility.Event) {
	if l == nil || len(events) == 0 {
		return
	}
	if firstSeq == 0 {
		firstSeq = 1
	}
	l.firstSeq = firstSeq
	for _, e := range events {
		l.append(e)
	}
}

// view returns an immutable window over the current log contents, reusing
// the previous window when nothing was appended since.
func (l *eventLog) view() eventsView {
	if l == nil {
		return eventsView{firstSeq: 1}
	}
	if !l.dirty {
		return l.last
	}
	l.last = eventsView{
		chunks:    append([]*eventChunk(nil), l.chunks...),
		chunkSize: l.chunkSize,
		firstSeq:  l.firstSeq,
		n:         l.n,
	}
	l.dirty = false
	return l.last
}

// nextSeq returns the sequence number the next appended event will get,
// i.e. the cursor a poller should pass to resume after this view.
func (v eventsView) nextSeq() uint64 { return v.firstSeq + uint64(v.n) }

// since appends the events with sequence number >= since to dst and returns
// the extended slice. Passing 0 (or anything below the retained window)
// returns everything retained.
func (v eventsView) since(dst []visibility.Event, since uint64) []visibility.Event {
	for i := v.skip(since); i < v.n; i++ {
		dst = append(dst, v.chunks[i/v.chunkSize].ev[i%v.chunkSize])
	}
	return dst
}

// rangeSince is since without the copy: fn sees each event in place on the
// shared chunks, with its sequence number.
func (v eventsView) rangeSince(since uint64, fn func(seq uint64, e *visibility.Event)) {
	for i := v.skip(since); i < v.n; i++ {
		fn(v.firstSeq+uint64(i), &v.chunks[i/v.chunkSize].ev[i%v.chunkSize])
	}
}

// skip returns how many retained events precede sequence number since.
func (v eventsView) skip(since uint64) int {
	if since <= v.firstSeq {
		return 0
	}
	if since-v.firstSeq > uint64(v.n) {
		return v.n
	}
	return int(since - v.firstSeq)
}
