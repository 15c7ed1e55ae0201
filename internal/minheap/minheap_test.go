package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

func intLess(a, b int) bool { return a < b }

// TestPopsInSortedOrder interleaves pushes and pops at random and checks
// every pop against a sorted reference multiset.
func TestPopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h, ref []int
		for step := 0; step < 300; step++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				x := rng.Intn(50) // duplicates on purpose
				h = Push(h, x, intLess)
				ref = append(ref, x)
				sort.Ints(ref)
				continue
			}
			var got int
			h, got = Pop(h, intLess)
			if got != ref[0] {
				t.Fatalf("round %d step %d: popped %d, smallest is %d", round, step, got, ref[0])
			}
			ref = ref[1:]
		}
		if len(h) != len(ref) {
			t.Fatalf("round %d: heap holds %d, reference %d", round, len(h), len(ref))
		}
	}
}

func TestPopZeroesVacatedSlot(t *testing.T) {
	less := func(a, b *int) bool { return *a < *b }
	one, two := 1, 2
	h := Push(Push([]*int(nil), &two, less), &one, less)
	h, got := Pop(h, less)
	if *got != 1 || len(h) != 1 {
		t.Fatalf("popped %d, %d left", *got, len(h))
	}
	if h[:2][1] != nil {
		t.Fatal("vacated tail slot still references the popped element's neighbour")
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	h := make([]int, 0, 64)
	for i := 0; i < 32; i++ {
		h = Push(h, i*7%32, intLess)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var x int
		h, x = Pop(h, intLess)
		h = Push(h, x+32, intLess)
	})
	if allocs != 0 {
		t.Fatalf("push+pop allocates %.1f objects", allocs)
	}
}
