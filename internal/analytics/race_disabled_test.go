//go:build !race

package analytics_test

const raceEnabled = false
