//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it because the race runtime inflates
// allocation counts.
const raceEnabled = true
