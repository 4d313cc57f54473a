//go:build !race

package testutil

// RaceEnabled reports whether the race detector is instrumenting this
// build; see race.go.
const RaceEnabled = false
