//go:build race

package taintmap

// raceEnabled reports whether the test binary was built with the race
// detector, whose sync.Pool drops a share of what is put back: an
// allocation count then measures the detector, not the code.
const raceEnabled = true
