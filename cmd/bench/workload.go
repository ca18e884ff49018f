package main

import (
	"fmt"
	"strconv"
	"time"
)

// workload is one traffic mix. The sizes are frozen: a later change is
// measured on exactly these inputs, so editing them resets the baseline.
type workload struct {
	Name string
	Why  string
	// Open selects the open loop: every line is sent at its due time
	// t0 + (τ − τ0)/Rho whatever the system is doing. Closed-loop
	// workloads write as fast as the feed socket drains.
	Open bool
	// Replica adds one `cmd/serve -replica` tailing the alert log; the
	// subscriber reads from it and re-dials once with Last-Event-ID.
	Replica bool

	Vessels int // base fleet N
	Areas   int // areas of interest
	Pairs   int // scripted rendezvous pairs and, again, dark pairs
	Window  time.Duration
	Slide   time.Duration
	// Pairwise is cmd/serve's -pairwise (analytics tier with collision
	// screening).
	Pairwise bool

	// Rho is stream seconds per wall second. On an open loop it is the
	// pacing. On a closed loop it is the sizing rule: the repetitions of
	// a run together stream Rho × --seconds of traffic, calibrated at the
	// defining commit so their measured phases add up to about --seconds.
	Rho float64
	// Warmup is the stream time an open loop sends before the measured
	// phase, at the slower WarmupRho. A cold stream opens with every
	// vessel appearing at once: for some fifteen stream minutes a slide
	// of collision screening costs twenty times the steady state. At Rho
	// that transient overflows the drop-oldest ingest buffer, so it is
	// sent at a rate the writer sustains and kept out of the latency
	// samples; its alerts are still checked. Closed loops need none:
	// TCP backpressure paces them.
	Warmup    time.Duration
	WarmupRho float64
	// Reps is how many times a closed loop measures in one run, each
	// time on a freshly started system under test; see bringUps.
	Reps int
}

// The four workloads. Sizing rule: a closed-loop Rho is the stream time
// the defining commit consumed per second on the 2-core reference box,
// rounded down; the open-loop Rho keeps the writer's pipeline goroutine
// 40–50 % busy. README.md records the measurements behind each number.
var workloads = []workload{
	{
		Name:    "paper-fleet",
		Why:     "paper scale (N=6425, 35 areas): fix volume high, alerts sparse, so ais+feed+tracker dominate",
		Vessels: 6425, Areas: 35, Window: time.Hour, Slide: 5 * time.Minute,
		Rho: 10800, Reps: 6,
	},
	{
		Name:    "alert-dense",
		Why:     "N=1500, 140 areas, 6 h window, scripted pairs: recognition, pairwise screening, publish and log append dominate",
		Vessels: 1500, Areas: 140, Pairs: 30, Window: 6 * time.Hour, Slide: 5 * time.Minute,
		Pairwise: true,
		Rho:      16200, Reps: 3,
	},
	{
		Name:    "paced-direct",
		Open:    true,
		Why:     "open loop at fixed rate, subscriber on the writer: how long after a vessel acts the alert is on the socket",
		Vessels: 1500, Areas: 35, Pairs: 30, Window: 2 * time.Hour, Slide: time.Minute,
		Pairwise: true,
		Rho:      2160, Warmup: 20 * time.Minute, WarmupRho: 240,
	},
	{
		Name: "paced-replica", Open: true, Replica: true,
		Why:     "same stream and rate, subscriber on a log-tailing replica with one Last-Event-ID re-dial: tail poll and replay",
		Vessels: 1500, Areas: 35, Pairs: 30, Window: 2 * time.Hour, Slide: time.Minute,
		Pairwise: true,
		Rho:      2160, Warmup: 20 * time.Minute, WarmupRho: 240,
	},
}

// quickVessels is the fleet of -quick mode: every workload keeps its
// shape (areas, window, flags, processes) on a toy fleet.
const quickVessels = 120

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// streamDuration is the stream time of one repetition of a run whose
// measured phases add up to the given length, warm-up included, in
// whole slides so the last slide is a full one. A closed loop splits
// the length over its repetitions.
func (w workload) streamDuration(seconds float64) time.Duration {
	if !w.Open {
		seconds /= float64(w.Reps)
	}
	d := time.Duration(w.Rho * seconds * float64(time.Second))
	if d < 2*w.Slide {
		d = 2 * w.Slide
	}
	return (w.Warmup + d).Truncate(w.Slide)
}

// serveFlags is the writer's command line apart from addresses and the
// log directory. -degrade=false keeps the alert set deterministic;
// -sub-queue is raised above the largest single-slide alert burst
// (a burst larger than the queue drops inside one Hub.Publish, whatever
// the reader does); everything else is cmd/serve's default.
func (w workload) serveFlags(seed int64) []string {
	ingest := "0"
	if w.Open {
		ingest = strconv.Itoa(pacedIngestBuffer)
	}
	return []string{
		"-vessels", strconv.Itoa(w.Vessels),
		"-seed", strconv.FormatInt(seed, 10),
		"-areas", strconv.Itoa(w.Areas),
		"-window", w.Window.String(),
		"-slide", w.Slide.String(),
		"-shards", "0",
		"-pairwise=" + strconv.FormatBool(w.Pairwise),
		"-degrade=false",
		"-ingest-buffer", ingest,
		"-sub-queue", strconv.Itoa(subQueue),
	}
}

// pacedIngestBuffer is the open loops' -ingest-buffer, in fixes: two
// seconds of stream at their rate. cmd/serve's default 8192 holds a
// quarter of a second, and the shared reference box stalls for longer
// than that often enough to drop fixes in one run in ten; a benchmark's
// workloads must not fail. The buffer still drops its oldest when full,
// and queue wait in it still counts in the latency.
const pacedIngestBuffer = 65536

// subQueue is the per-subscriber queue bound passed to writer and
// replica (cmd/serve's default 256 is below alert-dense's largest
// slide).
const subQueue = 16384
