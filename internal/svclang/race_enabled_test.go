//go:build race

package svclang

// raceEnabled lets allocation tests skip under the race detector, whose
// instrumentation changes allocation counts.
const raceEnabled = true
