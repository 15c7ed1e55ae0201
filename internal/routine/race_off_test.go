//go:build !race

package routine

const raceEnabled = false
