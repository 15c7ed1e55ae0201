//go:build race

package harness

// raceEnabled: the race detector's instrumentation changes what escapes and
// allocates, so allocation budgets are not asserted under it.
const raceEnabled = true
