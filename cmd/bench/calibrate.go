package main

import (
	"sort"
	"time"
)

// The box this benchmark runs on is a shared virtual machine whose speed
// wanders: the fixed kernel below, alone on an idle box, runs anywhere
// between 100 and 215 times a second from one ten-second stretch to the
// next, and every timing of the system under test moves with it. So each
// repetition is bracketed by two short runs of the kernel, and its
// time-based metrics are reported at nominal box speed: a time is
// multiplied by measured/nominal, a rate divided by it. The kernel is
// the benchmark's own code and shares nothing with the code under test,
// so a change to the repository cannot move it; on paper-fleet this
// takes the run-to-run spread of fixes_per_s from 10 % to 2.4 %. The raw
// values and the index are printed, and stored by -out, beside the
// normalised ones.

// nominalSpeed is the kernel's rate on the reference box when it is
// undisturbed, in runs per second.
const nominalSpeed = 200

// calibrationWindow is how long one measurement of the box's speed
// lasts.
const calibrationWindow = 200 * time.Millisecond

type calRecord struct {
	key uint32
	sum float64
}

// calibrationKernel is a fixed mix of what the pipeline does most: map
// lookups, small allocations, a sort of pointers.
func calibrationKernel() int {
	m := make(map[uint32]*calRecord)
	x := uint32(12345)
	for i := 0; i < 20000; i++ {
		x = x*1664525 + 1013904223
		k := x >> 14
		r := m[k]
		if r == nil {
			r = &calRecord{key: k}
			m[k] = r
		}
		r.sum += float64(i)
	}
	s := make([]*calRecord, 0, len(m))
	for _, r := range m {
		s = append(s, r)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].key < s[j].key })
	return len(s)
}

// boxSpeed runs the kernel for one calibration window and returns its
// rate as a share of nominalSpeed.
func boxSpeed() float64 {
	t := time.Now()
	n := 0
	for time.Since(t) < calibrationWindow {
		calibrationKernel()
		n++
	}
	return float64(n) / time.Since(t).Seconds() / nominalSpeed
}
