//go:build race

package manager

// raceEnabled: the race detector instruments allocations and channel
// operations, so allocation budgets cannot be asserted under it.
const raceEnabled = true
