//go:build !race

package expbench

const raceEnabled = false
