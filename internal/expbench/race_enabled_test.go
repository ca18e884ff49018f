//go:build race

package expbench

// raceEnabled reports whether the race detector is compiled in; the
// Fig. 11 wall-clock comparison skips under it.
const raceEnabled = true
