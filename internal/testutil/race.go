//go:build race

package testutil

// RaceEnabled reports whether the race detector is instrumenting this
// build. Allocation-contract tests skip under it: the detector's
// shadow-memory bookkeeping allocates, and sync.Pool drops items at
// random, on paths that are allocation-free in a normal build.
const RaceEnabled = true
