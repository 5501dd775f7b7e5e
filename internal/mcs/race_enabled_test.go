//go:build race

package mcs

// raceEnabled reports whether the race detector is compiled in; the
// allocation-regression tests skip under it (instrumentation allocates).
const raceEnabled = true
