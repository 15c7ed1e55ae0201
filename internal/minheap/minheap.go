// Package minheap is a binary min-heap over a plain slice, for the places
// that pop "the smallest next" on a path where container/heap's interface
// boxing would allocate per element: the simulator's event queue, the
// precedence graph's topological order and the congruence worklist.
//
// The heap is the slice itself; the caller owns it and passes the same strict
// ordering to every call. When less is a total order (no two elements
// compare equal both ways), the sequence of popped elements is fully
// determined by the set of pushed ones.
package minheap

// Push adds x to the heap h and returns the extended slice.
func Push[T any](h []T, x T, less func(a, b T) bool) []T {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h
}

// Pop removes the smallest element of the non-empty heap h and returns the
// shortened slice and the element. The vacated tail slot is zeroed, so a heap
// of pointers does not pin what it no longer holds.
func Pop[T any](h []T, less func(a, b T) bool) ([]T, T) {
	var zero T
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = zero
	h = h[:n]
	if n == 0 {
		return h, top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return h, top
}
