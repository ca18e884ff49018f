//go:build !race

package mod

const raceEnabled = false
