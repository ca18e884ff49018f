//go:build !race

package maritime_test

const raceEnabled = false
