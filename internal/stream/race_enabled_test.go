//go:build race

package stream

// raceEnabled reports whether the race detector is compiled in; the
// allocation-gate test skips under it because the race runtime inflates
// allocation counts.
const raceEnabled = true
