//go:build !race

package manager

const raceEnabled = false
