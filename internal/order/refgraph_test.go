package order

// Differential tests for the interned precedence graph: a naive
// map-of-maps + map-DFS reference implementation (the package's original
// code, kept verbatim as the oracle) is driven with the same randomized
// edge/remove sequences as the interned Graph, and both must accept/reject
// exactly the same edges and emit exactly the same Order(). The contraction
// oracle drives the same reference against a Graph that is sealed wherever
// Seal's precondition holds. The same file keeps the original O(n²)
// KendallTau pair loop as the oracle for the merge-sort inversion count.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"safehome/internal/routine"
	"safehome/internal/stats"
)

// --- naive reference implementation (the pre-interning Graph) ---------------

type refGraph struct {
	nodes   map[Node]int
	nextSeq int
	succ    map[Node]map[Node]bool
	pred    map[Node]map[Node]bool
}

func newRefGraph() *refGraph {
	return &refGraph{
		nodes: make(map[Node]int),
		succ:  make(map[Node]map[Node]bool),
		pred:  make(map[Node]map[Node]bool),
	}
}

func (g *refGraph) addNode(n Node) {
	if _, ok := g.nodes[n]; ok {
		return
	}
	g.nodes[n] = g.nextSeq
	g.nextSeq++
	g.succ[n] = make(map[Node]bool)
	g.pred[n] = make(map[Node]bool)
}

func (g *refGraph) has(n Node) bool {
	_, ok := g.nodes[n]
	return ok
}

// addEdge reports whether the edge was accepted (nil error in the real API).
func (g *refGraph) addEdge(before, after Node) bool {
	if before == after {
		return false
	}
	g.addNode(before)
	g.addNode(after)
	if g.succ[before][after] {
		return true
	}
	if g.hasPath(after, before) {
		return false
	}
	g.succ[before][after] = true
	g.pred[after][before] = true
	return true
}

func (g *refGraph) hasPath(from, to Node) bool {
	if !g.has(from) || !g.has(to) || from == to {
		return false
	}
	stack := []Node{from}
	visited := map[Node]bool{from: true}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g.succ[n] {
			if next == to {
				return true
			}
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

func (g *refGraph) remove(n Node) {
	if !g.has(n) {
		return
	}
	for p := range g.pred[n] {
		delete(g.succ[p], n)
	}
	for s := range g.succ[n] {
		delete(g.pred[s], n)
	}
	delete(g.succ, n)
	delete(g.pred, n)
	delete(g.nodes, n)
}

// tieKeys mirrors Graph.tieKeys naively: every node keys by insertion
// sequence, with routine-node sequences reassigned among themselves in
// routine-ID order.
func (g *refGraph) tieKeys() map[Node]int {
	keys := make(map[Node]int, len(g.nodes))
	var routines []Node
	var rseqs []int
	for n, s := range g.nodes {
		keys[n] = s
		if n.Kind == KindRoutine {
			routines = append(routines, n)
			rseqs = append(rseqs, s)
		}
	}
	sort.Ints(rseqs)
	sort.Slice(routines, func(a, b int) bool { return routines[a].Routine < routines[b].Routine })
	for i, n := range routines {
		keys[n] = rseqs[i]
	}
	return keys
}

func (g *refGraph) order() []Node {
	indeg := make(map[Node]int, len(g.nodes))
	for n := range g.nodes {
		indeg[n] = len(g.pred[n])
	}
	ready := make([]Node, 0, len(g.nodes))
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	keys := g.tieKeys()
	less := func(a, b Node) bool { return keys[a] < keys[b] }
	var out []Node
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for s := range g.succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != len(g.nodes) {
		panic("refGraph: cycle")
	}
	return out
}

// --- the differential property test -----------------------------------------

// randomNode draws from a small universe of routine, failure and restart
// nodes so collisions (duplicate edges, re-added nodes) are frequent.
func randomNode(rng *stats.RNG, universe int) Node {
	switch rng.Intn(4) {
	case 0:
		return FailureNode("dev", rng.Intn(3))
	case 1:
		return RestartNode("dev", rng.Intn(3))
	default:
		return RoutineNode(routine.ID(rng.Intn(universe) + 1))
	}
}

// TestGraphMatchesReferenceProperty drives ≥1k randomized operation
// sequences (edge insertions with occasional node removals — the
// abort/commit churn pattern the controllers generate) through both
// implementations, asserting identical accept/reject decisions on every
// AddEdge, identical HasPath/Has/Len observations, and identical Order().
func TestGraphMatchesReferenceProperty(t *testing.T) {
	const sequences = 1500
	for seq := 0; seq < sequences; seq++ {
		rng := stats.NewRNG(int64(seq) + 1)
		g := NewGraph()
		ref := newRefGraph()
		universe := rng.Intn(12) + 3
		steps := rng.Intn(60) + 10
		if seq%10 == 0 {
			// Large enough to spill over several slot chunks and to grow the
			// routine-ID index; collisions are rarer, so many more steps.
			universe = rng.Intn(120) + 40
			steps = rng.Intn(400) + 200
		}
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 0: // occasional removal (routine abort / commit compaction)
				n := randomNode(rng, universe)
				g.Remove(n)
				ref.remove(n)
			case 1: // bare registration
				n := randomNode(rng, universe)
				g.AddNode(n)
				ref.addNode(n)
			default:
				a, b := randomNode(rng, universe), randomNode(rng, universe)
				err := g.AddEdge(a, b)
				accepted := ref.addEdge(a, b)
				if (err == nil) != accepted {
					t.Fatalf("seq %d step %d: AddEdge(%v,%v) interned err=%v, reference accepted=%v",
						seq, i, a, b, err, accepted)
				}
				// Cross-check path queries in both directions.
				if g.HasPath(a, b) != ref.hasPath(a, b) || g.HasPath(b, a) != ref.hasPath(b, a) {
					t.Fatalf("seq %d step %d: HasPath disagreement after AddEdge(%v,%v)", seq, i, a, b)
				}
			}
			if g.Len() != len(ref.nodes) {
				t.Fatalf("seq %d step %d: Len = %d, reference %d", seq, i, g.Len(), len(ref.nodes))
			}
		}
		got, want := g.Order(), ref.order()
		if len(got) != len(want) {
			t.Fatalf("seq %d: Order length %d, reference %d", seq, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seq %d: Order[%d] = %v, reference %v\n got: %v\nwant: %v",
					seq, i, got[i], want[i], got, want)
			}
		}
	}
}

// --- the contraction oracle -------------------------------------------------

// sealGen generates operations the way an EV controller makes them, so
// that Seal's precondition can be met: nodes are drawn from a window of
// routine IDs and event sequence numbers, an edge only ever points into a
// node that is not finished yet, only unfinished nodes are removed, and a
// seal retires the whole window — every node drawn afterwards is new and
// takes a larger tie key. Sealed nodes stay usable as edge sources.
type sealGen struct {
	rng      *stats.RNG
	lo       routine.ID // the window's routine IDs are lo+1 … lo+universe
	universe int
	evBase   int // the window's event sequence numbers are evBase … evBase+2
	finished map[Node]bool
	sealed   []Node // the nodes of the prefix, in no particular order
}

func (d *sealGen) window() Node {
	switch d.rng.Intn(4) {
	case 0:
		return FailureNode("dev", d.evBase+d.rng.Intn(3))
	case 1:
		return RestartNode("dev", d.evBase+d.rng.Intn(3))
	default:
		return RoutineNode(d.lo + routine.ID(d.rng.Intn(d.universe)+1))
	}
}

// source draws an edge source: usually a window node, sometimes a sealed one.
func (d *sealGen) source() Node {
	if len(d.sealed) > 0 && d.rng.Intn(3) == 0 {
		return d.sealed[d.rng.Intn(len(d.sealed))]
	}
	return d.window()
}

// live returns the reference's nodes that are not sealed.
func (d *sealGen) live(ref *refGraph) []Node {
	sealed := make(map[Node]bool, len(d.sealed))
	for _, n := range d.sealed {
		sealed[n] = true
	}
	var out []Node
	for n := range ref.nodes {
		if !sealed[n] {
			out = append(out, n)
		}
	}
	return out
}

// seal seals g if every live node is finished, and then retires the window.
func (d *sealGen) seal(g *Graph, ref *refGraph) bool {
	live := d.live(ref)
	for _, n := range live {
		if !d.finished[n] {
			return false
		}
	}
	g.Seal()
	d.sealed = append(d.sealed, live...)
	d.lo += routine.ID(d.universe)
	d.evBase += 3
	return true
}

// TestSealMatchesReferenceProperty is the contraction oracle: random
// operation sequences run against a Graph that is sealed at every point
// where Seal's precondition holds and against the unsealed reference. Every
// AddEdge must be accepted or rejected alike, and Order() must be identical
// after every operation; the graph must hold only the unsealed nodes.
func TestSealMatchesReferenceProperty(t *testing.T) {
	const sequences = 400
	seals := 0
	for seq := 0; seq < sequences; seq++ {
		rng := stats.NewRNG(int64(seq) + 7001)
		g := NewGraph()
		ref := newRefGraph()
		d := &sealGen{rng: rng, universe: rng.Intn(8) + 3, finished: make(map[Node]bool)}
		steps := rng.Intn(60) + 20
		for i := 0; i < steps; i++ {
			var op string
			switch rng.Intn(12) {
			case 0: // an open routine aborts
				n := d.window()
				if d.finished[n] {
					continue
				}
				op = fmt.Sprintf("Remove(%v)", n)
				g.Remove(n)
				ref.remove(n)
			case 1: // bare registration, sealed nodes included
				n := d.source()
				op = fmt.Sprintf("AddNode(%v)", n)
				g.AddNode(n)
				ref.addNode(n)
			case 2: // a node's routine finishes
				n := d.window()
				if !ref.has(n) {
					continue
				}
				op = fmt.Sprintf("finish(%v)", n)
				d.finished[n] = true
			case 3: // quiescence: everything finishes, then the seal
				for _, n := range d.live(ref) {
					d.finished[n] = true
				}
				op = "quiesce+Seal"
				if !d.seal(g, ref) {
					t.Fatalf("seq %d step %d: quiescent graph refused the seal", seq, i)
				}
				seals++
			case 4: // seal only where the precondition already holds
				op = "Seal?"
				if d.seal(g, ref) {
					seals++
				}
			default:
				a, b := d.source(), d.window()
				if d.finished[b] {
					continue
				}
				op = fmt.Sprintf("AddEdge(%v,%v)", a, b)
				err := g.AddEdge(a, b)
				if accepted := ref.addEdge(a, b); (err == nil) != accepted {
					t.Fatalf("seq %d step %d: %s sealed err=%v, reference accepted=%v", seq, i, op, err, accepted)
				}
			}
			if want := len(d.live(ref)); g.Len() != want {
				t.Fatalf("seq %d step %d after %s: Len = %d, want the %d unsealed nodes", seq, i, op, g.Len(), want)
			}
			got, want := g.Order(), ref.order()
			if !slices.Equal(got, want) {
				t.Fatalf("seq %d step %d after %s:\n got: %v\nwant: %v", seq, i, op, got, want)
			}
		}
		for _, n := range d.sealed {
			if g.Has(n) {
				t.Fatalf("seq %d: sealed node %v still registered", seq, n)
			}
		}
	}
	if seals < sequences {
		t.Fatalf("only %d seals over %d sequences: the oracle barely exercises Seal", seals, sequences)
	}
}

// --- KendallTau oracle -------------------------------------------------------

// kendallTauNaive is the original O(n²) pair loop, kept as the oracle for the
// merge-sort inversion count.
func kendallTauNaive(a, b []routine.ID) int {
	posB := make(map[routine.ID]int, len(b))
	for i, id := range b {
		posB[id] = i
	}
	var common []routine.ID
	for _, id := range a {
		if _, ok := posB[id]; ok {
			common = append(common, id)
		}
	}
	inversions := 0
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			if posB[common[i]] > posB[common[j]] {
				inversions++
			}
		}
	}
	return inversions
}

func TestKendallTauMatchesNaiveProperty(t *testing.T) {
	for seq := 0; seq < 500; seq++ {
		rng := stats.NewRNG(int64(seq) + 1)
		n := rng.Intn(60)
		perm := make([]routine.ID, n)
		for i := range perm {
			perm[i] = routine.ID(i + 1)
		}
		a := append([]routine.ID(nil), perm...)
		b := append([]routine.ID(nil), perm...)
		shuffle := func(s []routine.ID) {
			for i := len(s) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				s[i], s[j] = s[j], s[i]
			}
		}
		shuffle(a)
		shuffle(b)
		// Drop a random suffix from b so the partial-overlap path is covered.
		b = b[:n-rng.Intn(n/2+1)]
		if got, want := KendallTau(a, b), kendallTauNaive(a, b); got != want {
			t.Fatalf("seq %d: KendallTau = %d, naive oracle = %d (a=%v b=%v)", seq, got, want, a, b)
		}
	}
}
