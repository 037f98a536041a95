//go:build !race

package detectors

// raceEnabled lets allocation-budget tests skip under the race detector,
// whose instrumentation changes allocation counts.
const raceEnabled = false
