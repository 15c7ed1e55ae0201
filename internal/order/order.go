// Package order maintains SafeHome's serialization order: a precedence
// graph over routines, device failure events and device restart events.
//
// The controllers use it to (a) record "serialize-before" relationships
// implied by lineage placement and lock leases, (b) refuse leases that would
// contradict an already-established order (the preSet/postSet test of
// Algorithm 1 and §4.1), and (c) extract the final serially-equivalent order
// and the order-mismatch metric (§7.6).
//
// The graph sits on the scheduling hot path (every Timeline gap trial and
// every JiT eligibility test ends in AddEdge/HasPath calls), so nodes are
// interned to dense int32 slots and adjacency is kept per slot, in slices of
// slot numbers. Routine nodes — all but a handful of any graph — resolve to their slot
// through a slice indexed by routine ID, so an edge between routines hashes
// nothing; only failure/restart events go through a map. Cycle checks reuse
// an epoch-stamped visited mark instead of allocating a map per query; in
// steady state AddEdge, CanOrder and HasPath perform no allocation at all.
// The Node-based API is a thin veneer over the interned representation.
//
// A graph whose nodes are all final can be sealed (Graph.Seal): its order
// moves into a run-length-encoded prefix and the interned graph empties, so
// the graph holds only the nodes added since — a controller seals whenever
// no routine is open, and its graph grows with open work, not with history.
package order

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"safehome/internal/device"
	"safehome/internal/minheap"
	"safehome/internal/routine"
)

// Kind distinguishes the three event types that appear in a serialization
// order (§3: failure and restart events are serialized alongside routines).
type Kind int

const (
	// KindRoutine is a routine node.
	KindRoutine Kind = iota
	// KindFailure is a device failure event node.
	KindFailure
	// KindRestart is a device restart event node.
	KindRestart
)

func (k Kind) String() string {
	switch k {
	case KindRoutine:
		return "routine"
	case KindFailure:
		return "failure"
	case KindRestart:
		return "restart"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node identifies one entry of the serialization order.
type Node struct {
	Kind    Kind
	Routine routine.ID // set for KindRoutine
	Device  device.ID  // set for failure/restart events
	Seq     int        // distinguishes repeated failure/restart of one device
}

// RoutineNode returns the node for a routine.
func RoutineNode(id routine.ID) Node { return Node{Kind: KindRoutine, Routine: id} }

// FailureNode returns the node for the seq-th failure event of a device.
func FailureNode(dev device.ID, seq int) Node {
	return Node{Kind: KindFailure, Device: dev, Seq: seq}
}

// RestartNode returns the node for the seq-th restart event of a device.
func RestartNode(dev device.ID, seq int) Node {
	return Node{Kind: KindRestart, Device: dev, Seq: seq}
}

// String renders the node in the paper's notation (R3, F[ac]#0, Re[ac]#0).
func (n Node) String() string {
	switch n.Kind {
	case KindRoutine:
		return fmt.Sprintf("R%d", n.Routine)
	case KindFailure:
		return fmt.Sprintf("F[%s]#%d", n.Device, n.Seq)
	case KindRestart:
		return fmt.Sprintf("Re[%s]#%d", n.Device, n.Seq)
	default:
		return "?"
	}
}

// ErrCycle is returned when adding a precedence edge would create a cycle,
// i.e. contradict the already-established serialization order. AddEdge
// returns it bare: a rejected edge is the schedulers' ordinary "this gap does
// not work" answer, tested and dropped thousands of times per second, so it
// carries no formatted detail.
var ErrCycle = errors.New("order: edge would create a cycle")

// freeSeq marks a slot whose node has been removed; the slot is recycled by
// the next interning.
const freeSeq = -1

// Graph is a precedence DAG over serialization-order nodes. The zero value
// is not usable; call NewGraph. Graph is not safe for concurrent use (the
// controllers are single-threaded).
//
// Internally every node is interned to a dense int32 slot. Removed nodes
// leave free slots that are recycled, so long-lived graphs under
// submit/commit churn stay compact. Slots live in fixed-size chunks that are
// never moved: regrowing flat per-slot arrays (tens of kilobytes by a few
// hundred routines) made the unlucky submission that crossed a capacity
// boundary several times slower than its neighbours.
//
// The graph holds the nodes added since the last Seal; everything before is
// the sealed prefix, kept as runs of consecutive routine IDs, and costs a
// few bytes per run rather than a slot and its adjacency lists per node.
// Sealing empties the graph but keeps its chunks, adjacency arrays and ID
// index for the nodes that come next, so a graph that is sealed at every
// quiescent point stays the size of its largest burst of open work.
type Graph struct {
	byRoutine []int32        // routine ID-rbase -> slot+1 (0 = unregistered), for IDs in (rbase, rbase+denseRoutines)
	rbase     routine.ID     // routine IDs up to rbase are sealed
	index     map[Node]int32 // every other node -> slot
	chunks    []*slotChunk   // slot i is chunks[i>>chunkShift][i&(chunkSize-1)]
	n         int32          // slots handed out so far, vacant ones included
	free      []int32        // recycled slots
	slab      []int32        // unused tail of the current adjacency slab (see appendEdge)
	live      int
	next      int // next insertion sequence; Seal keeps counting

	// The sealed prefix: its order as runs, the nodes it holds singly (in
	// order, referenced by runs) and the set of those nodes.
	prefix    []sealedRun
	singles   []Node
	sealedSet map[Node]struct{}
	sealedLen int // nodes in the prefix

	// Reusable scratch for traversals; a slot whose visited == epoch was
	// seen by the current query.
	epoch  uint32
	stack  []int32
	indeg  []int32
	ready  []int32 // the topological sort's min-heap of in-degree-0 slots, by tie key
	sorted []int32 // the topological sort's output
	keys   []int
	rslots []int32
	rseqs  []int
}

// sealedRun is one entry of the sealed prefix: the routines first,
// first+1, …, first+n-1 in that order, or, when n is 0, the node
// singles[first] (a failure or restart event, or a routine node that is not
// a plain dense one).
type sealedRun struct {
	first routine.ID
	n     int
}

// slot is the graph's record of one interned node.
type slot struct {
	node    Node
	seq     int     // insertion sequence (freeSeq when vacant)
	succ    []int32 // successor slots
	pred    []int32 // predecessor slots
	visited uint32
}

// A chunk holds 16 slots (~1.7 KB): small enough that allocating one is an
// ordinary small-object allocation on the submit path.
const (
	chunkShift = 4
	chunkSize  = 1 << chunkShift
)

type slotChunk [chunkSize]slot

// at returns slot i.
func (g *Graph) at(i int32) *slot { return &g.chunks[i>>chunkShift][i&(chunkSize-1)] }

// graphSlab is the number of routine IDs NewGraph sizes its ID index for,
// and the number of edgeSeed-entry lists an adjacency slab holds (see
// appendEdge).
const graphSlab = 64

// denseRoutines bounds the routine IDs resolved through the ID-indexed slice.
// Controllers assign IDs densely from 1, so in practice every routine node
// takes that path; an ID beyond the bound (or a negative one) falls back to
// the map rather than sizing a slice by an arbitrary number.
const denseRoutines = 1 << 22

// NewGraph returns an empty precedence graph.
func NewGraph() *Graph {
	return &Graph{
		byRoutine: make([]int32, graphSlab),
		index:     make(map[Node]int32),
	}
}

// plain reports whether n is a routine node as RoutineNode builds it.
func plain(n Node) bool { return n.Kind == KindRoutine && n.Device == "" && n.Seq == 0 }

// dense reports whether n is a plain routine node resolved by routine ID:
// an ID at most denseRoutines above the sealed ones. (An ID at or below
// them is sealed, or never registered.)
func (g *Graph) dense(n Node) bool {
	return plain(n) && uint64(n.Routine-g.rbase) < denseRoutines
}

// sealed reports whether n belongs to the sealed prefix. Every plain routine
// ID up to the highest one sealed counts as sealed, including IDs removed
// before that seal: callers never bring those back (see Seal).
func (g *Graph) sealed(n Node) bool {
	if plain(n) && n.Routine > 0 && n.Routine <= g.rbase {
		return true
	}
	if len(g.sealedSet) == 0 {
		return false
	}
	_, ok := g.sealedSet[n]
	return ok
}

// lookup returns n's slot, if registered. Sealed nodes are not registered.
// (Kept small enough to inline: it runs twice per AddEdge.)
func (g *Graph) lookup(n Node) (int32, bool) {
	if off := uint64(n.Routine - g.rbase); plain(n) && off < denseRoutines {
		if off < uint64(len(g.byRoutine)) {
			s := g.byRoutine[off]
			return s - 1, s != 0
		}
		return 0, false
	}
	i, ok := g.index[n]
	return i, ok
}

// bind records n's slot.
func (g *Graph) bind(n Node, slot int32) {
	if !g.dense(n) {
		g.index[n] = slot
		return
	}
	off := int(n.Routine - g.rbase)
	if off >= len(g.byRoutine) {
		g.byRoutine = append(g.byRoutine, make([]int32, off+1-len(g.byRoutine))...)
	}
	g.byRoutine[off] = slot + 1
}

// unbind forgets the slot of a registered node.
func (g *Graph) unbind(n Node) {
	if g.dense(n) {
		g.byRoutine[n.Routine-g.rbase] = 0
	} else {
		delete(g.index, n)
	}
}

// sealedSlot is what intern returns for a node of the sealed prefix.
const sealedSlot = -1

// intern returns the slot for n, allocating (or recycling) one if needed, or
// sealedSlot if n is sealed.
func (g *Graph) intern(n Node) int32 {
	if i, ok := g.lookup(n); ok {
		return i
	}
	if g.sealed(n) {
		return sealedSlot
	}
	var i int32
	if len(g.free) > 0 {
		i = g.free[len(g.free)-1]
		g.free = g.free[:len(g.free)-1]
	} else {
		i = g.n
		if int(i>>chunkShift) == len(g.chunks) {
			g.chunks = append(g.chunks, new(slotChunk))
		}
		g.n++
	}
	sl := g.at(i)
	sl.node, sl.seq = n, g.next
	g.next++
	g.bind(n, i)
	g.live++
	return i
}

// AddNode registers a node (idempotent; a sealed node stays sealed).
func (g *Graph) AddNode(n Node) { g.intern(n) }

// Has reports whether the node is registered. A sealed node is not: its
// place in the order is fixed, and no edge can involve it any more.
func (g *Graph) Has(n Node) bool {
	_, ok := g.lookup(n)
	return ok
}

// Len returns the number of registered nodes, the sealed prefix excluded.
func (g *Graph) Len() int { return g.live }

// AddEdge records that `before` is serialized before `after`. Both nodes are
// registered if needed. It returns ErrCycle (and leaves the graph unchanged)
// if the edge would contradict existing constraints; self-edges are also
// rejected.
//
// An edge from a sealed node only registers `after`: the prefix already
// orders every sealed node ahead of every node added since. An edge into a
// sealed node is ErrCycle; Seal's precondition rules it out.
func (g *Graph) AddEdge(before, after Node) error {
	if before == after {
		return ErrCycle
	}
	bi := g.intern(before)
	ai := g.intern(after)
	if ai == sealedSlot {
		return ErrCycle
	}
	if bi == sealedSlot {
		return nil
	}
	b, a := g.at(bi), g.at(ai)
	for _, s := range b.succ {
		if s == ai {
			return nil
		}
	}
	if g.hasPath(ai, bi) {
		return ErrCycle
	}
	b.succ = g.appendEdge(b.succ, ai)
	a.pred = g.appendEdge(a.pred, bi)
	return nil
}

// edgeSeed is the capacity an adjacency list starts with: typical fan-outs (a
// handful of serialize-before constraints per node) never outgrow it.
const edgeSeed = 8

// appendEdge appends to an adjacency list; every append goes through it. All
// lists live in the graph's slab: a new list is carved edgeSeed entries, and a
// full one is carved again at twice its capacity, its entries copied across.
// A carving is a 3-index slice, so an append can never write into the list
// carved next to it. Growth is geometric, so the carvings a list has left
// behind hold fewer entries than its current one: the slab stays within a
// small constant factor of the live adjacency, and a graph that keeps growing
// (committed routines stay in the order until a Seal) allocates a slab per
// several hundred entries rather than an array per list that outgrows its
// seed. A recycled or sealed slot keeps its list's capacity.
func (g *Graph) appendEdge(list []int32, v int32) []int32 {
	if len(list) == cap(list) {
		n := max(edgeSeed, 2*cap(list))
		if len(g.slab) < n {
			g.slab = make([]int32, max(n, edgeSeed*graphSlab))
		}
		grown := g.slab[:len(list):n]
		copy(grown, list)
		list, g.slab = grown, g.slab[n:]
	}
	return append(list, v)
}

// CanOrder reports whether an edge before→after could be added without
// contradicting the current constraints (without adding it).
func (g *Graph) CanOrder(before, after Node) bool {
	if before == after || g.sealed(after) {
		return false
	}
	bi, okB := g.lookup(before)
	ai, okA := g.lookup(after)
	if !okB || !okA {
		return true
	}
	return !g.hasPath(ai, bi)
}

// HasPath reports whether `from` reaches `to` through precedence edges
// (i.e. from is serialized before to, transitively).
func (g *Graph) HasPath(from, to Node) bool {
	fi, okF := g.lookup(from)
	ti, okT := g.lookup(to)
	if !okF || !okT {
		return false
	}
	return g.hasPath(fi, ti)
}

// nextEpoch advances the visited stamp, clearing every slot's stamp on the
// (rare) wrap-around so stale stamps can never collide with the current
// epoch — the slots a Seal vacated included, since they are handed out
// again.
func (g *Graph) nextEpoch() uint32 {
	g.epoch++
	if g.epoch == 0 {
		for _, c := range g.chunks {
			for i := range c {
				c[i].visited = 0
			}
		}
		g.epoch = 1
	}
	return g.epoch
}

// hasPath runs an iterative DFS over interned slots using the epoch-stamped
// visited array; no per-call allocation in steady state.
func (g *Graph) hasPath(from, to int32) bool {
	if from == to {
		return false
	}
	epoch := g.nextEpoch()
	g.stack = append(g.stack[:0], from)
	g.at(from).visited = epoch
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, next := range g.at(n).succ {
			if next == to {
				return true
			}
			if sl := g.at(next); sl.visited != epoch {
				sl.visited = epoch
				g.stack = append(g.stack, next)
			}
		}
	}
	return false
}

// dropIdx removes value v from slice (order-insensitive swap-remove;
// adjacency order is never observable through the API).
func dropIdx(slice []int32, v int32) []int32 {
	for i, x := range slice {
		if x == v {
			slice[i] = slice[len(slice)-1]
			return slice[:len(slice)-1]
		}
	}
	return slice
}

// Remove deletes a node and all its edges, e.g. when a routine aborts and
// therefore does not appear in the final serialization order.
func (g *Graph) Remove(n Node) {
	i, ok := g.lookup(n)
	if !ok {
		return
	}
	sl := g.at(i)
	for _, p := range sl.pred {
		g.at(p).succ = dropIdx(g.at(p).succ, i)
	}
	for _, s := range sl.succ {
		g.at(s).pred = dropIdx(g.at(s).pred, i)
	}
	sl.succ = sl.succ[:0]
	sl.pred = sl.pred[:0]
	sl.seq = freeSeq
	g.unbind(n)
	g.free = append(g.free, i)
	g.live--
}

// Predecessors returns the direct predecessors of n.
func (g *Graph) Predecessors(n Node) []Node {
	return g.neighbors(n, func(sl *slot) []int32 { return sl.pred })
}

// Successors returns the direct successors of n.
func (g *Graph) Successors(n Node) []Node {
	return g.neighbors(n, func(sl *slot) []int32 { return sl.succ })
}

func (g *Graph) neighbors(n Node, adj func(*slot) []int32) []Node {
	i, ok := g.lookup(n)
	if !ok {
		return nil
	}
	slots := append([]int32(nil), adj(g.at(i))...)
	sort.Slice(slots, func(a, b int) bool { return g.at(slots[a]).seq < g.at(slots[b]).seq })
	out := make([]Node, len(slots))
	for k, x := range slots {
		out[k] = g.at(x).node
	}
	return out
}

// Ancestors returns every node serialized before n (transitively). Used as
// the preSet in lease/gap legality checks.
func (g *Graph) Ancestors(n Node) map[Node]bool {
	return g.reach(n, func(sl *slot) []int32 { return sl.pred })
}

// Descendants returns every node serialized after n (transitively). Used as
// the postSet in lease/gap legality checks.
func (g *Graph) Descendants(n Node) map[Node]bool {
	return g.reach(n, func(sl *slot) []int32 { return sl.succ })
}

func (g *Graph) reach(start Node, adj func(*slot) []int32) map[Node]bool {
	out := make(map[Node]bool)
	si, ok := g.lookup(start)
	if !ok {
		return out
	}
	epoch := g.nextEpoch()
	g.stack = append(g.stack[:0], si)
	g.at(si).visited = epoch
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, next := range adj(g.at(n)) {
			if sl := g.at(next); sl.visited != epoch {
				sl.visited = epoch
				out[sl.node] = true
				g.stack = append(g.stack, next)
			}
		}
	}
	return out
}

// tieKeys computes a total tie-break key per live slot: every node's key is
// its insertion sequence, except that the routine nodes' sequences are
// reassigned among themselves in routine-ID order. Routines therefore
// tie-break by ID (i.e. submission order) and events by insertion sequence —
// the documented contract — through one totally-ordered numeric key.
//
// (The previous implementation compared routine pairs by ID but mixed pairs
// by insertion sequence, which is an intransitive relation whenever routine
// registration order disagrees with ID order; sort results then depended on
// map iteration order. In controller usage routines are registered in ID
// order, so this key is identical to the old behaviour wherever the old
// behaviour was well-defined.)
func (g *Graph) tieKeys() []int {
	if cap(g.keys) < int(g.n) {
		g.keys = make([]int, g.n)
	}
	g.keys = g.keys[:g.n]
	g.rslots = g.rslots[:0]
	g.rseqs = g.rseqs[:0]
	for i := int32(0); i < g.n; i++ {
		sl := g.at(i)
		if sl.seq == freeSeq {
			continue
		}
		g.keys[i] = sl.seq
		if sl.node.Kind == KindRoutine {
			g.rslots = append(g.rslots, i)
			g.rseqs = append(g.rseqs, sl.seq)
		}
	}
	slices.Sort(g.rseqs)
	slices.SortFunc(g.rslots, func(a, b int32) int {
		if x, y := g.at(a).node.Routine, g.at(b).node.Routine; x != y {
			return cmp.Compare(x, y)
		}
		return cmp.Compare(g.at(a).seq, g.at(b).seq)
	})
	for k, slot := range g.rslots {
		g.keys[slot] = g.rseqs[k]
	}
	return g.keys
}

// Order returns a topological order of all nodes — the sealed prefix, then
// the registered nodes — consistent with the precedence edges. Ties are
// broken by routine ID (i.e. submission order) for routines and by insertion
// sequence for failure/restart events (see tieKeys), which yields the
// minimum-order-mismatch serialization among valid ones for the common case.
// The result is the only allocation.
func (g *Graph) Order() []Node {
	sorted := g.topo()
	out := make([]Node, 0, g.sealedLen+len(sorted))
	for _, r := range g.prefix {
		if r.n == 0 {
			out = append(out, g.singles[r.first])
			continue
		}
		for id := r.first; id < r.first+routine.ID(r.n); id++ {
			out = append(out, RoutineNode(id))
		}
	}
	for _, i := range sorted {
		out = append(out, g.at(i).node)
	}
	return out
}

// topo returns the registered slots in topological order, in reused
// scratch: Kahn's algorithm, emitting the smallest-keyed ready node at each
// step.
func (g *Graph) topo() []int32 {
	if cap(g.indeg) < int(g.n) {
		g.indeg = make([]int32, g.n)
	}
	g.indeg = g.indeg[:g.n]
	keys := g.tieKeys()
	// ready is a min-heap of in-degree-0 slots under their (distinct) tie
	// keys: each step emits the smallest-keyed ready node.
	less := func(a, b int32) bool { return keys[a] < keys[b] }
	ready := g.ready[:0]
	for i := int32(0); i < g.n; i++ {
		sl := g.at(i)
		if sl.seq == freeSeq {
			continue
		}
		g.indeg[i] = int32(len(sl.pred))
		if g.indeg[i] == 0 {
			ready = minheap.Push(ready, i, less)
		}
	}
	out := g.sorted[:0]
	for len(ready) > 0 {
		var n int32
		ready, n = minheap.Pop(ready, less)
		out = append(out, n)
		for _, s := range g.at(n).succ {
			g.indeg[s]--
			if g.indeg[s] == 0 {
				ready = minheap.Push(ready, s, less)
			}
		}
	}
	g.ready, g.sorted = ready, out
	if len(out) != g.live {
		// Should be impossible: AddEdge prevents cycles.
		panic("order: graph contains a cycle")
	}
	return out
}

// Seal moves every registered node into the sealed prefix, in Order, and
// empties the graph, keeping its slot chunks, adjacency arrays and ID index
// for the nodes that come next; Order then returns the same nodes as before
// the seal, and later nodes follow them.
//
// The caller guarantees that the registered nodes are final: none of them
// will gain a predecessor or be removed, and every node added afterwards is
// new and takes a larger tie key — a plain routine ID above every routine
// ID the graph has held, or an event not seen before. A controller with no
// open routine meets this. Under it, the full graph's order is the order at
// the seal followed by the order of what came after: a sealed node is always
// ready before any later one and keys below it. So sealed nodes need no
// slots. An edge from one is implied by the prefix and an edge into one
// cannot happen (AddEdge).
func (g *Graph) Seal() {
	hi := g.rbase
	for _, i := range g.topo() {
		n := g.at(i).node
		if g.dense(n) && n.Routine > 0 {
			if k := len(g.prefix) - 1; k >= 0 && g.prefix[k].n > 0 && g.prefix[k].first+routine.ID(g.prefix[k].n) == n.Routine {
				g.prefix[k].n++
			} else {
				g.prefix = append(g.prefix, sealedRun{first: n.Routine, n: 1})
			}
			hi = max(hi, n.Routine)
		} else {
			if g.sealedSet == nil {
				g.sealedSet = make(map[Node]struct{})
			}
			g.sealedSet[n] = struct{}{}
			g.prefix = append(g.prefix, sealedRun{first: routine.ID(len(g.singles))})
			g.singles = append(g.singles, n)
		}
	}
	g.sealedLen += g.live
	for i := int32(0); i < g.n; i++ {
		sl := g.at(i)
		sl.succ, sl.pred = sl.succ[:0], sl.pred[:0]
	}
	g.n, g.free, g.live = 0, g.free[:0], 0
	clear(g.index)
	clear(g.byRoutine)
	g.rbase = hi
}

// RoutineOrder returns only the routine IDs from Order, in serialization
// order.
func (g *Graph) RoutineOrder() []routine.ID {
	var out []routine.ID
	for _, n := range g.Order() {
		if n.Kind == KindRoutine {
			out = append(out, n.Routine)
		}
	}
	return out
}

// --- order mismatch -------------------------------------------------------

// KendallTau returns the swap distance between two orderings of the same
// routine set: the number of pairs whose relative order differs. Elements
// present in only one of the slices are ignored.
//
// The count is computed as the number of inversions of b-positions taken in
// a-order, via a merge-sort inversion count — O(n log n), versus the naive
// O(n²) pair loop it replaced (kept as the oracle in the package tests). It
// runs once per experiment trial over full routine sets, which at
// multi-tenant scale made the quadratic loop measurable.
func KendallTau(a, b []routine.ID) int {
	posB := make(map[routine.ID]int, len(b))
	for i, id := range b {
		posB[id] = i
	}
	seq := make([]int, 0, len(a))
	for _, id := range a {
		if p, ok := posB[id]; ok {
			seq = append(seq, p)
		}
	}
	buf := make([]int, len(seq))
	return countInversions(seq, buf)
}

// countInversions counts pairs i<j with seq[i] > seq[j] by merge sort,
// mutating seq and using buf as merge scratch.
func countInversions(seq, buf []int) int {
	n := len(seq)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := countInversions(seq[:mid], buf[:mid]) + countInversions(seq[mid:], buf[mid:])
	// Merge the two sorted halves, counting cross-half inversions: when an
	// element of the right half is placed before remaining left elements,
	// each remaining left element forms one discordant pair with it.
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if seq[i] <= seq[j] {
			buf[k] = seq[i]
			i++
		} else {
			buf[k] = seq[j]
			j++
			inv += mid - i
		}
		k++
	}
	copy(buf[k:], seq[i:mid])
	copy(buf[k+mid-i:], seq[j:])
	copy(seq, buf)
	return inv
}

// OrderMismatch returns the normalized swap distance in [0,1]: KendallTau
// divided by the maximum possible number of discordant pairs. It is the
// paper's "order mismatch" metric (§7.6).
func OrderMismatch(submission, serialization []routine.ID) float64 {
	posB := make(map[routine.ID]int, len(serialization))
	for i, id := range serialization {
		posB[id] = i
	}
	n := 0
	for _, id := range submission {
		if _, ok := posB[id]; ok {
			n++
		}
	}
	if n < 2 {
		return 0
	}
	maxPairs := n * (n - 1) / 2
	return float64(KendallTau(submission, serialization)) / float64(maxPairs)
}
