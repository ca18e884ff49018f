package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileExactOnKnownDistribution(t *testing.T) {
	// 1..1000 shuffled: the p-th percentile by nearest rank is 10·p.
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	s := summarize(samples)
	if s.N != 1000 || s.Median != 500 {
		t.Fatalf("n=%d median=%v, want 1000 and 500", s.N, s.Median)
	}
	// 1000 samples leave exactly ten beyond p99 and one beyond p99.9.
	if s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("tail p%v=%v, want p99=990", s.TailP, s.Tail)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {95, 950}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileNeverExceedsMax(t *testing.T) {
	// The bucketed histogram this replaces reported p99 above the maximum.
	samples := []float64{3, 1, 76023, 2, 5, 8, 13, 21, 34, 55, 89}
	s := summarize(samples)
	if got := percentile(samples, 99); got != 76023 {
		t.Fatalf("p99 = %v, want the maximum 76023", got)
	}
	if s.TailP != 0 {
		t.Fatalf("eleven samples leave no percentile with ten beyond it, got p%v", s.TailP)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail float64
	}{{19, 0}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {10000, 99.9}} {
		samples := make([]float64, c.n)
		for i := range samples {
			samples[i] = float64(i)
		}
		if got := summarize(samples).TailP; got != c.tail {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, got, c.tail)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4) of these ten values.
	v := []float64{12, 7, 3, 9, 15, 21, 5, 18, 11, 14}
	q1, q2, q3 := quartiles(v)
	if q1 != 6.5 || q2 != 11.5 || q3 != 15.75 {
		t.Fatalf("quartiles = %v %v %v, want 6.5 11.5 15.75", q1, q2, q3)
	}
	if got, want := spread(v), (15.75-6.5)/11.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
