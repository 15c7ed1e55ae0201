//go:build race

package runtime

// raceEnabled: the race detector instruments allocations and channel
// operations, so allocation budgets cannot be asserted under it.
const raceEnabled = true
