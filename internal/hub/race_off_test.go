//go:build !race

package hub

const raceEnabled = false
