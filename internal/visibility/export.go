package visibility

import (
	"sort"
	"time"

	"safehome/internal/device"
	"safehome/internal/routine"
)

// This file is the visibility half of SafeHome's off-loop read path: the
// controller (single-threaded, loop-owned) maintains cheap dirty-tracking as
// it mutates state, and ExportInto folds only what changed since the
// previous export into an immutable StateExport — held by value in the home
// runtime's snapshot, so a publish is one object — that the runtime
// publishes through an atomic pointer. Readers then answer Results/Counts/state
// queries from the latest export without ever entering the runtime's
// mailbox.
//
// The contract for every structure here is the same:
//
//   - Everything reachable from a StateExport is immutable once the export
//     is written. Readers on any goroutine may traverse it freely.
//   - Building export N+1 from export N is O(changes since N), never
//     O(total history).
//
// Two idioms make that cheap:
//
//   - Write-once slots. A routine's Result can only change while the routine
//     is unfinished. Finished results are written into a chunked slot array
//     exactly once (at the first export after they finish) and shared by
//     every later export; the handful of still-open routines ride in a small
//     per-export overlay instead. Nothing is ever re-copied.
//   - Bounded prefixes. Shared backing arrays only grow: an export records
//     how many entries it may read, and the single writer only writes at
//     indexes beyond every published bound, so disjoint-index access needs
//     no synchronization beyond the atomic publish itself.

// resultChunkShift sizes result chunks at 16 entries (~2.3 KB of final
// outcomes per chunk, allocated once per 16 routines). The chunk is allocated
// on the submit path, and a pointer-bearing allocation pays its collector
// assist in one piece: at 64 entries (~9 KB) every 64th submission of a home
// ran 15–30 µs late.
const (
	resultChunkShift = 4
	resultChunkSize  = 1 << resultChunkShift
)

// resultChunk is one fixed-size block of final per-routine outcomes. Slot
// i holds routine ID (chunkIndex<<shift)+i+1, written exactly once, at the
// first export after that routine finished.
type resultChunk [resultChunkSize]Result

// ResultsExport is an immutable view of per-routine outcomes in submission
// order. Routine IDs are assigned densely from 1, so result i (0-based)
// belongs to routine ID i+1 and single-result lookup is O(1) — plus a
// binary search over the (usually tiny) open-routine overlay.
type ResultsExport struct {
	// chunks is the shared spine of write-once final outcomes, bounded by n.
	chunks []*resultChunk
	n      int
	// overlay carries the routines that were still unfinished at export
	// time, in ascending ID order: their final slots are not written yet, so
	// their current records are captured here instead.
	overlay []Result
}

// Len returns the number of results.
func (e *ResultsExport) Len() int { return e.n }

// At returns result i (0-based, submission order).
func (e *ResultsExport) At(i int) Result { return *e.Ref(i) }

// Ref returns result i in place: a pointer into the export's own immutable
// storage, for readers (the HTTP encoders) that would only copy the record
// to read it. The caller must not write through it.
func (e *ResultsExport) Ref(i int) *Result {
	rid := routine.ID(i + 1)
	if len(e.overlay) > 0 {
		o := sort.Search(len(e.overlay), func(j int) bool { return e.overlay[j].ID >= rid })
		if o < len(e.overlay) && e.overlay[o].ID == rid {
			return &e.overlay[o]
		}
	}
	return &e.chunks[i>>resultChunkShift][i&(resultChunkSize-1)]
}

// AppendTo materializes the results into dst and returns the extended slice.
func (e *ResultsExport) AppendTo(dst []Result) []Result {
	o := 0
	for i := 0; i < e.n; i++ {
		if o < len(e.overlay) && e.overlay[o].ID == routine.ID(i+1) {
			dst = append(dst, e.overlay[o])
			o++
			continue
		}
		dst = append(dst, e.chunks[i>>resultChunkShift][i&(resultChunkSize-1)])
	}
	return dst
}

// stateChunkSize sizes device-state chunks; homes have tens of devices, so
// the spine is one or two pointers and a dirty chunk copy is 16 entries.
const (
	stateChunkShift = 4
	stateChunkSize  = 1 << stateChunkShift
)

type stateChunk [stateChunkSize]device.State

// StatesExport is a persistent copy-on-write map of committed device states:
// slots are interned per device (append-only), states live in fixed-size
// chunks, and an export shares every chunk the commits since the previous
// export did not touch. Re-asserting an unchanged state marks nothing, so
// steady workloads share the whole structure between exports.
type StatesExport struct {
	keys   []device.ID // slot -> device; shared append-only array, bounded by n
	chunks []*stateChunk
	slots  map[device.ID]int // immutable; replaced (copied) only when a device is added
	n      int
}

// Len returns the number of devices with a committed state.
func (e *StatesExport) Len() int { return e.n }

// Get returns the committed state of one device.
func (e *StatesExport) Get(d device.ID) (device.State, bool) {
	slot, ok := e.slots[d]
	if !ok || slot >= e.n {
		return device.StateUnknown, false
	}
	return e.chunks[slot>>stateChunkShift][slot&(stateChunkSize-1)], true
}

// AppendTo materializes the committed states into dst (allocating it if nil)
// and returns the map.
func (e *StatesExport) AppendTo(dst map[device.ID]device.State) map[device.ID]device.State {
	if dst == nil {
		dst = make(map[device.ID]device.State, e.n)
	}
	for slot := 0; slot < e.n; slot++ {
		dst[e.keys[slot]] = e.chunks[slot>>stateChunkShift][slot&(stateChunkSize-1)]
	}
	return dst
}

// StateExport is one epoch's immutable view of a controller: results,
// counts and committed device states, all captured at the same instant on
// the loop goroutine, so readers get an internally consistent picture
// (Routines always equals Results.Len(), Pending never disagrees with the
// statuses in the same export).
type StateExport struct {
	Results   ResultsExport
	Committed StatesExport

	Routines int
	Pending  int
	Active   int

	// Now is the controller clock at export time.
	Now time.Time
}

// exportState is the controller-side scratch behind ExportInto: dirty
// tracking plus the mutable twins of the shared spines.
type exportState struct {
	// prev is the previous export: the storage the caller handed to the
	// last ExportInto (inside the runtime's published snapshot), which
	// nobody rewrites.
	prev *StateExport

	// open tracks unfinished routines (their records may change at any time,
	// so each export captures them in its overlay); finishedDirty lists the
	// routines that finished since the last export, whose final slots the
	// next export writes.
	open          map[routine.ID]struct{}
	finishedDirty []routine.ID

	// chunks is the writer's view of the shared final-outcome spine; slots
	// and spine entries beyond the latest published bound are invisible to
	// every published export.
	chunks []*resultChunk

	// Committed-state twins: keys is the shared slot->device array, slots the
	// current device->slot index (copied into exports on growth), dirtySlots
	// the slots written since the last export, slotsGrown whether a device
	// was added since the last export.
	keys       []device.ID
	slots      map[device.ID]int
	dirtySlots []int
	slotsGrown bool
}

func newExportState() *exportState {
	return &exportState{
		open:  make(map[routine.ID]struct{}),
		slots: make(map[device.ID]int),
	}
}

// slot returns the final-outcome slot of a routine (valid once the spine
// covers it).
func (x *exportState) slot(rid routine.ID) *Result {
	return &x.chunks[(int64(rid)-1)>>resultChunkShift][(int64(rid)-1)&(resultChunkSize-1)]
}

// noteOpen records a newly submitted routine (its record will keep changing
// until it finishes).
func (x *exportState) noteOpen(rid routine.ID) { x.open[rid] = struct{}{} }

// noteFinished moves a routine from the open set to the finished-dirty list.
func (x *exportState) noteFinished(rid routine.ID) {
	delete(x.open, rid)
	x.finishedDirty = append(x.finishedDirty, rid)
}

// noteCommittedState interns a slot for d and marks it dirty.
func (x *exportState) noteCommittedState(d device.ID) int {
	slot, ok := x.slots[d]
	if !ok {
		slot = len(x.keys)
		x.keys = append(x.keys, d)
		x.slots[d] = slot
		x.slotsGrown = true
	}
	x.dirtySlots = append(x.dirtySlots, slot)
	return slot
}

// ExportInto writes an immutable snapshot of the controller's observable
// state into out. It must be called from the goroutine that owns the
// controller (the home runtime's loop); once published, the export may be
// read from any goroutine. Consecutive calls share everything that did not
// change in between, so the cost is proportional to the routines touched
// since the previous call.
func (b *base) ExportInto(out *StateExport) {
	x := b.export
	n := len(b.submitted)

	*out = StateExport{
		Routines: n,
		Pending:  b.PendingCount(),
		Active:   b.active,
		Now:      b.env.Now(),
	}

	b.exportResults(out, n)
	b.exportCommitted(out)

	x.finishedDirty = x.finishedDirty[:0]
	x.dirtySlots = x.dirtySlots[:0]
	x.slotsGrown = false
	x.prev = out
}

func (b *base) exportResults(out *StateExport, n int) {
	x := b.export

	// Grow the spine to cover every submitted routine. Appends only touch
	// indexes beyond previously published bounds (and a reallocation leaves
	// old exports' arrays untouched), so sharing the slice is safe.
	for len(x.chunks)<<resultChunkShift < n {
		x.chunks = append(x.chunks, new(resultChunk))
	}

	// Write the final slots of routines that finished since the last export,
	// and retire their live records: the slot is now the (only) storage of a
	// finished outcome, shared by the controller's own reads and every later
	// export, so memory and GC scan work don't double. Older exports carried
	// these routines in their overlays (they were open when those exports
	// were cut), so no published reader resolves a slot before this write is
	// published.
	for _, rid := range x.finishedDirty {
		if res, ok := b.results[rid]; ok {
			*x.slot(rid) = *res
			delete(b.results, rid)
		}
	}

	// Capture the still-open routines in this export's overlay.
	var overlay []Result
	if len(x.open) > 0 {
		overlay = make([]Result, 0, len(x.open))
		for rid := range x.open {
			overlay = append(overlay, *b.results[rid])
		}
		sort.Slice(overlay, func(i, j int) bool { return overlay[i].ID < overlay[j].ID })
	}

	out.Results = ResultsExport{chunks: x.chunks, n: n, overlay: overlay}
}

func (b *base) exportCommitted(out *StateExport) {
	x := b.export
	if x.prev != nil && len(x.dirtySlots) == 0 && !x.slotsGrown {
		out.Committed = x.prev.Committed
		return
	}

	nSlots := len(x.keys)
	nChunks := (nSlots + stateChunkSize - 1) >> stateChunkShift
	var prev *StatesExport
	if x.prev != nil {
		prev = &x.prev.Committed
	}

	dirty := make(map[int]struct{}, len(x.dirtySlots))
	for _, slot := range x.dirtySlots {
		dirty[slot>>stateChunkShift] = struct{}{}
	}
	prevChunks := 0
	if prev != nil {
		prevChunks = (prev.n + stateChunkSize - 1) >> stateChunkShift
	}

	chunks := make([]*stateChunk, nChunks)
	for ci := 0; ci < nChunks; ci++ {
		_, isDirty := dirty[ci]
		if !isDirty && ci < prevChunks && (ci+1)<<stateChunkShift <= prev.n {
			chunks[ci] = prev.chunks[ci] // untouched full chunk: share it
			continue
		}
		c := new(stateChunk)
		if ci < prevChunks {
			*c = *prev.chunks[ci]
		}
		first := ci << stateChunkShift
		last := first + stateChunkSize
		if last > nSlots {
			last = nSlots
		}
		for slot := first; slot < last; slot++ {
			if isDirty || slot >= prevSlotBound(prev) {
				c[slot&(stateChunkSize-1)] = b.committed[x.keys[slot]]
			}
		}
		chunks[ci] = c
	}

	var slots map[device.ID]int
	if !x.slotsGrown && prev != nil {
		slots = prev.slots
	} else {
		// The live index mutated since the last export (or this is the first
		// export): publish a private copy and keep mutating the live one.
		slots = make(map[device.ID]int, len(x.slots))
		for d, s := range x.slots {
			slots[d] = s
		}
	}

	out.Committed = StatesExport{keys: x.keys, chunks: chunks, slots: slots, n: nSlots}
}

func prevSlotBound(prev *StatesExport) int {
	if prev == nil {
		return 0
	}
	return prev.n
}
