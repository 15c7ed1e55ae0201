//go:build race

package main

// raceEnabled relaxes the wall-clock budget: the detector slows the suite
// several-fold.
const raceEnabled = true
