package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted
// samples by the nearest-rank rule: the smallest sample with at least
// p % of the samples at or below it. It is exact — no buckets, no
// interpolation — so it never exceeds the maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples: ⌈p·n/100⌉, with a hair's tolerance so that binary fractions
// (99.9 % of 1000 is 999.0000000000001) do not round a rank up.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// summary is a timing reported the way the metrics guide asks: the
// median, the highest percentile that still has at least ten samples
// beyond it, and the sample count.
type summary struct {
	N      int
	Median float64
	// TailP is the percentile reported as Tail; 0 when fewer than
	// twenty samples leave no percentile with ten samples beyond it.
	TailP float64
	Tail  float64
}

// tailCandidates are the percentiles a summary may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// summarize sorts the samples in place and summarizes them.
func summarize(samples []float64) summary {
	slices.Sort(samples)
	s := summary{N: len(samples), Median: percentile(samples, 50)}
	for _, p := range tailCandidates {
		if len(samples) > 0 && len(samples)-rank(p, len(samples)) >= 10 {
			s.TailP, s.Tail = p, percentile(samples, p)
			break
		}
	}
	return s
}

// sortedCopy returns the values in ascending order, leaving the
// argument as it was.
func sortedCopy(values []float64) []float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return s
}

// quartiles returns the three cut points of the values as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method) —
// the rule the benchmark's acceptance uses. It needs two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run spread the bounds are set from.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// median returns the nearest-rank median of the values.
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}
