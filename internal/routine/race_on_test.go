//go:build race

package routine

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation budgets that lean on a pool cannot be asserted under it.
const raceEnabled = true
