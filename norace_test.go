//go:build !race

package modcon

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
