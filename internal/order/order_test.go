package order

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"safehome/internal/routine"
	"safehome/internal/stats"
)

func TestAddEdgeAndPath(t *testing.T) {
	g := NewGraph()
	a, b, c := RoutineNode(1), RoutineNode(2), RoutineNode(3)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if !g.HasPath(a, c) {
		t.Fatal("transitive path a->c missing")
	}
	if g.HasPath(c, a) {
		t.Fatal("reverse path should not exist")
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestCycleRejected(t *testing.T) {
	g := NewGraph()
	a, b, c := RoutineNode(1), RoutineNode(2), RoutineNode(3)
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	if err := g.AddEdge(c, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("expected ErrCycle, got %v", err)
	}
	// Graph must be unchanged by the failed insertion.
	if g.HasPath(c, a) {
		t.Fatal("rejected edge left residue")
	}
	if err := g.AddEdge(a, a); !errors.Is(err, ErrCycle) {
		t.Fatalf("self edge should be rejected, got %v", err)
	}
	if !g.CanOrder(a, c) || g.CanOrder(c, a) {
		t.Fatal("CanOrder disagrees with constraints")
	}
	if g.CanOrder(a, a) {
		t.Fatal("CanOrder(a,a) should be false")
	}
}

func TestDuplicateEdgeIdempotent(t *testing.T) {
	g := NewGraph()
	a, b := RoutineNode(1), RoutineNode(2)
	mustEdge(t, g, a, b)
	mustEdge(t, g, a, b)
	if got := g.Successors(a); len(got) != 1 {
		t.Fatalf("duplicate edge created extra successor: %v", got)
	}
}

func TestRemove(t *testing.T) {
	g := NewGraph()
	a, b, c := RoutineNode(1), RoutineNode(2), RoutineNode(3)
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	g.Remove(b)
	if g.Has(b) {
		t.Fatal("b still present")
	}
	if g.HasPath(a, c) {
		t.Fatal("path through removed node should be gone")
	}
	// After removal, an order contradicting the old constraint is allowed.
	if err := g.AddEdge(c, a); err != nil {
		t.Fatalf("edge after removal should succeed: %v", err)
	}
	g.Remove(Node{Kind: KindRoutine, Routine: 99}) // removing absent node is a no-op
}

func TestFailureAndRestartNodes(t *testing.T) {
	g := NewGraph()
	r := RoutineNode(1)
	f := FailureNode("window", 0)
	re := RestartNode("window", 0)
	mustEdge(t, g, r, f)  // failure serialized after routine (EV case 3)
	mustEdge(t, g, f, re) // restart after failure
	ord := g.Order()
	if len(ord) != 3 || ord[0] != r || ord[1] != f || ord[2] != re {
		t.Fatalf("Order = %v", ord)
	}
	if f.String() != "F[window]#0" || re.String() != "Re[window]#0" || r.String() != "R1" {
		t.Fatalf("string forms: %v %v %v", f, re, r)
	}
	if KindRoutine.String() != "routine" || KindFailure.String() != "failure" || KindRestart.String() != "restart" {
		t.Fatal("Kind.String wrong")
	}
}

func TestOrderPrefersSubmissionOrder(t *testing.T) {
	g := NewGraph()
	// Register in reverse so insertion order disagrees with routine IDs.
	for id := routine.ID(5); id >= 1; id-- {
		g.AddNode(RoutineNode(id))
	}
	// Single constraint: 4 before 2.
	mustEdge(t, g, RoutineNode(4), RoutineNode(2))
	got := g.RoutineOrder()
	want := []routine.ID{1, 3, 4, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("order %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RoutineOrder = %v, want %v", got, want)
		}
	}
}

func TestPredecessorsSuccessorsAncestors(t *testing.T) {
	g := NewGraph()
	a, b, c, d := RoutineNode(1), RoutineNode(2), RoutineNode(3), RoutineNode(4)
	mustEdge(t, g, a, b)
	mustEdge(t, g, b, c)
	mustEdge(t, g, a, d)
	if got := g.Predecessors(c); len(got) != 1 || got[0] != b {
		t.Fatalf("Predecessors(c) = %v", got)
	}
	if got := g.Successors(a); len(got) != 2 {
		t.Fatalf("Successors(a) = %v", got)
	}
	anc := g.Ancestors(c)
	if !anc[a] || !anc[b] || anc[d] {
		t.Fatalf("Ancestors(c) = %v", anc)
	}
	desc := g.Descendants(a)
	if !desc[b] || !desc[c] || !desc[d] {
		t.Fatalf("Descendants(a) = %v", desc)
	}
	if len(g.Ancestors(Node{Kind: KindRoutine, Routine: 42})) != 0 {
		t.Fatal("ancestors of unknown node should be empty")
	}
}

func TestKendallTau(t *testing.T) {
	a := []routine.ID{1, 2, 3, 4}
	if d := KendallTau(a, a); d != 0 {
		t.Fatalf("identical orders distance = %d", d)
	}
	rev := []routine.ID{4, 3, 2, 1}
	if d := KendallTau(a, rev); d != 6 {
		t.Fatalf("reverse distance = %d, want 6", d)
	}
	if d := KendallTau(a, []routine.ID{1, 2, 4, 3}); d != 1 {
		t.Fatalf("one swap distance = %d", d)
	}
	// Elements missing from one order are ignored.
	if d := KendallTau([]routine.ID{1, 2, 3}, []routine.ID{3, 1}); d != 1 {
		t.Fatalf("partial overlap distance = %d", d)
	}
}

func TestOrderMismatch(t *testing.T) {
	sub := []routine.ID{1, 2, 3, 4}
	if m := OrderMismatch(sub, sub); m != 0 {
		t.Fatalf("mismatch of identical orders = %v", m)
	}
	if m := OrderMismatch(sub, []routine.ID{4, 3, 2, 1}); m != 1 {
		t.Fatalf("mismatch of reversed orders = %v", m)
	}
	if m := OrderMismatch(sub, []routine.ID{2, 1, 3, 4}); m != 1.0/6.0 {
		t.Fatalf("single swap mismatch = %v", m)
	}
	if m := OrderMismatch([]routine.ID{1}, []routine.ID{1}); m != 0 {
		t.Fatal("single-element mismatch should be 0")
	}
	if m := OrderMismatch(nil, nil); m != 0 {
		t.Fatal("empty mismatch should be 0")
	}
}

// Property: Order() is always a valid topological order (every edge's tail
// precedes its head), for random DAGs built by inserting edges from lower to
// higher IDs.
func TestOrderRespectsEdgesProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := NewGraph()
		type edge struct{ from, to Node }
		var edges []edge
		for _, p := range pairs {
			lo, hi := p[0]%20, p[1]%20
			if lo == hi {
				continue
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			from, to := RoutineNode(routine.ID(lo)), RoutineNode(routine.ID(hi))
			if err := g.AddEdge(from, to); err != nil {
				return false // edges always go low->high, so no cycle possible
			}
			edges = append(edges, edge{from, to})
		}
		pos := make(map[Node]int)
		for i, n := range g.Order() {
			pos[n] = i
		}
		for _, e := range edges {
			if pos[e.from] >= pos[e.to] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddEdge never allows a cycle — after arbitrary random edge
// insertions (some rejected), Order() must not panic and must include every
// node exactly once.
func TestNoCycleEverProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := stats.NewRNG(seed)
		g := NewGraph()
		nodes := int(n%15) + 2
		for i := 0; i < 40; i++ {
			a := RoutineNode(routine.ID(rng.Intn(nodes)))
			b := RoutineNode(routine.ID(rng.Intn(nodes)))
			_ = g.AddEdge(a, b) // errors are fine; graph must stay acyclic
		}
		ord := g.Order()
		seen := make(map[Node]bool)
		for _, nd := range ord {
			if seen[nd] {
				return false
			}
			seen[nd] = true
		}
		return len(ord) == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustEdge(t *testing.T, g *Graph, a, b Node) {
	t.Helper()
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge(%v,%v): %v", a, b, err)
	}
}

// TestSparseRoutineIDs covers the routine nodes the ID-indexed slice does not
// serve: an ID beyond its bound, a negative one and a routine node carrying
// event fields all go through the map, and behave like any other node.
func TestSparseRoutineIDs(t *testing.T) {
	g := NewGraph()
	huge, negative := RoutineNode(1<<40), RoutineNode(-7)
	odd := Node{Kind: KindRoutine, Routine: 3, Seq: 1} // not RoutineNode(3)
	plain := RoutineNode(3)
	for _, e := range [][2]Node{{plain, huge}, {huge, negative}, {negative, odd}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v, %v): %v", e[0], e[1], err)
		}
	}
	if err := g.AddEdge(odd, plain); !errors.Is(err, ErrCycle) {
		t.Fatalf("closing the cycle through sparse nodes: err = %v, want ErrCycle", err)
	}
	if !g.HasPath(plain, odd) || g.Len() != 4 {
		t.Fatalf("HasPath(plain, odd) = %v, Len = %d; want true, 4", g.HasPath(plain, odd), g.Len())
	}
	g.Remove(huge)
	if g.Has(huge) || g.HasPath(plain, odd) || g.Len() != 3 {
		t.Fatalf("after removing the middle node: Has=%v HasPath=%v Len=%d", g.Has(huge), g.HasPath(plain, odd), g.Len())
	}
	if got := len(g.byRoutine); got > graphSlab {
		t.Fatalf("sparse IDs grew the ID index to %d entries", got)
	}
}

// TestSealFoldsTheOrderIntoThePrefix pins Seal's contract on a small
// history: the order survives the seal, sealed nodes are no longer
// registered, an edge from a sealed node registers only its target, an edge
// into one is refused, and consecutive routines share one run.
func TestSealFoldsTheOrderIntoThePrefix(t *testing.T) {
	g := NewGraph()
	f := FailureNode("window", 0)
	mustEdge(t, g, RoutineNode(2), RoutineNode(1))
	mustEdge(t, g, RoutineNode(3), f)
	before := g.Order()
	g.Seal()
	if got := g.Order(); !slices.Equal(got, before) {
		t.Fatalf("Order after Seal = %v, before %v", got, before)
	}
	if g.Len() != 0 || g.Has(RoutineNode(1)) || g.Has(f) {
		t.Fatalf("after Seal: Len = %d, Has(R1) = %v, Has(F) = %v; want 0, false, false", g.Len(), g.Has(RoutineNode(1)), g.Has(f))
	}

	// Sources in the prefix: the target is registered, nothing else.
	re := RestartNode("window", 0)
	mustEdge(t, g, f, re)
	mustEdge(t, g, RoutineNode(3), RoutineNode(4))
	if g.Len() != 2 || !g.Has(re) || !g.Has(RoutineNode(4)) || g.Has(f) {
		t.Fatalf("edges from sealed nodes: Len = %d, want only Re and R4 registered", g.Len())
	}
	// Targets in the prefix: refused, as Seal's precondition promises they
	// never occur.
	for _, sealed := range []Node{RoutineNode(1), f} {
		if err := g.AddEdge(RoutineNode(4), sealed); !errors.Is(err, ErrCycle) {
			t.Fatalf("AddEdge(R4, %v) into the prefix: err = %v, want ErrCycle", sealed, err)
		}
		if g.CanOrder(RoutineNode(4), sealed) {
			t.Fatalf("CanOrder(R4, %v) = true for a sealed target", sealed)
		}
	}
	g.AddNode(RoutineNode(2)) // a sealed node stays sealed
	g.Remove(RoutineNode(3))  // and is not removable
	want := append(before, re, RoutineNode(4))
	if got := g.Order(); !slices.Equal(got, want) {
		t.Fatalf("Order = %v, want %v", got, want)
	}

	// A long sequential history is one run.
	for id := routine.ID(5); id <= 200; id++ {
		g.AddNode(RoutineNode(id))
		g.Seal()
	}
	if got := g.RoutineOrder(); len(got) != 200 || got[199] != 200 {
		t.Fatalf("RoutineOrder after 200 seals: %d routines, last %v", len(got), got[len(got)-1])
	}
	// The prefix: R2 R1 R3 F, then Re, then R4 … R200 as one run.
	if len(g.prefix) != 6 || len(g.chunks) != 1 || len(g.byRoutine) != graphSlab {
		t.Fatalf("after 200 seals: %d prefix runs, %d chunks, ID index %d; want 6, 1, %d",
			len(g.prefix), len(g.chunks), len(g.byRoutine), graphSlab)
	}
}

// TestOrderAllocatesOnlyItsResult: Order's sort runs in reused scratch (the
// tie keys' sort included), so its one allocation is the slice it returns;
// and a warmed graph sealed after every routine, the controllers' steady
// state, allocates nothing at all.
func TestOrderAllocatesOnlyItsResult(t *testing.T) {
	g := buildLayeredGraph(64, 8)
	mustEdge(t, g, RoutineNode(64), FailureNode("d", 0))
	mustEdge(t, g, FailureNode("d", 0), RestartNode("d", 0))
	got := testing.AllocsPerRun(100, func() { g.Order() })
	t.Logf("Order: %.1f allocs", got)
	if got != 1 {
		t.Fatalf("Order allocates %.1f objects, want 1 (its result)", got)
	}
	g.Seal()
	id := routine.ID(65)
	cycle := func() {
		mustEdge(t, g, RoutineNode(id-1), RoutineNode(id))
		mustEdge(t, g, RoutineNode(id), RoutineNode(id+1))
		g.Seal()
		id += 2
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	got = testing.AllocsPerRun(100, cycle)
	t.Logf("add-and-seal cycle: %.1f allocs", got)
	if got != 0 {
		t.Fatalf("an add-and-seal cycle allocates %.1f objects, want 0", got)
	}
}

// TestWideFanInGrowsInsideTheSlab: a graph that never seals, like
// paper_trace's (committed routines stay in the order while the home is
// busy), with 40 edges into every node but the first 40 and out of every
// node but the last 40, grows its adjacency lists far past edgeSeed. The
// lists regrow inside the graph's slab, so the edges cost a slab now and
// then, not an array per list each time it doubles.
func TestWideFanInGrowsInsideTheSlab(t *testing.T) {
	const nodes, fan = 400, 40
	addNodes := func() *Graph {
		g := NewGraph()
		for id := routine.ID(1); id <= nodes; id++ {
			g.AddNode(RoutineNode(id))
		}
		return g
	}
	edges := 0
	build := func() {
		g := addNodes()
		edges = 0
		for id := routine.ID(fan + 1); id <= nodes; id++ {
			for from := id - fan; from < id; from++ {
				if err := g.AddEdge(RoutineNode(from), RoutineNode(id)); err != nil {
					t.Fatal(err)
				}
				edges++
			}
		}
	}
	base := testing.AllocsPerRun(5, func() { addNodes() })
	per := (testing.AllocsPerRun(5, build) - base) / float64(edges)
	t.Logf("%d edges: %.4f allocs per AddEdge", edges, per)
	if per >= 0.05 {
		t.Fatalf("AddEdge costs %.4f allocs amortized over %d edges, want < 0.05", per, edges)
	}
}

// TestGrowingListLeavesItsNeighbourIntact fills a list, carves a second one
// right behind it in the slab, and keeps appending to both: each carving is
// capped at its own length, so neither list's growth can write into the
// other, and a list's capacity doubles each time it is full.
func TestGrowingListLeavesItsNeighbourIntact(t *testing.T) {
	g := NewGraph()
	var a, b []int32
	for v := int32(0); v < edgeSeed; v++ {
		a = g.appendEdge(a, v)
	}
	next := &g.slab[0]
	b = g.appendEdge(b, -1)
	if cap(a) != edgeSeed || &b[0] != next {
		t.Fatalf("a full seed list has capacity %d (want %d), and the next list is carved elsewhere", cap(a), edgeSeed)
	}
	for v := int32(edgeSeed); v < 5*edgeSeed; v++ {
		a = g.appendEdge(a, v)
		if len(b) < 3*edgeSeed {
			b = g.appendEdge(b, -v)
		}
	}
	for i, v := range a {
		if v != int32(i) {
			t.Fatalf("a[%d] = %d after the neighbour grew, want %d", i, v, i)
		}
	}
	if b[0] != -1 {
		t.Fatalf("b[0] = %d after a grew past it, want -1", b[0])
	}
	for i, v := range b[1:] {
		if want := -int32(edgeSeed + i); v != want {
			t.Fatalf("b[%d] = %d, want %d", i+1, v, want)
		}
	}
	if cap(a) != 8*edgeSeed || cap(b) != 4*edgeSeed {
		t.Fatalf("capacities %d and %d, want %d and %d (doubling from the seed)", cap(a), cap(b), 8*edgeSeed, 4*edgeSeed)
	}
}
