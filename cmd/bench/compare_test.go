package main

import "testing"

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 90, 110, 65, 135, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same runs", base, base, true, unchanged},
		{"latency up 20 % against a 10 % bound", base, scale(1.2), true, regressed},
		{"latency down 20 %", base, scale(0.8), true, improved},
		{"throughput up 20 %", base, scale(1.2), false, improved},
		{"throughput down 20 %", base, scale(0.8), false, regressed},
		{"inside the bound, every pair lost", base, scale(1.05), true, unchanged},
		{"spread wider than the bound", noisy, noisy, true, unresolved},
		{"one side missing", base, nil, true, unresolved},
	} {
		if got := judge(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
