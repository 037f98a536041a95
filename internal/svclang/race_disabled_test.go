//go:build !race

package svclang

const raceEnabled = false
