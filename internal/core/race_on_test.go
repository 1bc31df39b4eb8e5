//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// CPU-heavy single-goroutine properties trim their largest cases under it.
const raceEnabled = true
