package main

import (
	"fmt"
	"time"

	"repro/internal/maritime"
	"repro/internal/serve"
)

// alertKey identifies one delivered alert independently of its
// sequence number: ties inside a slide may be numbered differently
// from run to run, the multiset may not differ.
type alertKey struct {
	Slide   int64
	CE      string
	AreaID  string
	Time    int64
	Vessel  uint32
	Vessel2 uint32
}

func keyOf(slide time.Time, a maritime.Alert) alertKey {
	return alertKey{
		Slide: slide.Unix(), CE: a.CE, AreaID: a.AreaID, Time: a.Time.Unix(),
		Vessel: a.Vessel, Vessel2: a.Vessel2,
	}
}

// slideAlerts is one slide's recognized alerts in the reference.
type slideAlerts struct {
	Query  time.Time
	Alerts []maritime.Alert
}

// reference is what a correct run delivers.
type reference struct {
	Slides []slideAlerts
}

func (r *reference) total() int {
	n := 0
	for _, s := range r.Slides {
		n += len(s.Alerts)
	}
	return n
}

func (r *reference) multiset() map[alertKey]int {
	m := make(map[alertKey]int, r.total())
	for _, s := range r.Slides {
		for _, a := range s.Alerts {
			m[keyOf(s.Query, a)]++
		}
	}
	return m
}

// received is one envelope read off the subscriber's socket.
type received struct {
	Env serve.Envelope
	At  time.Time
}

// verdict is the correctness gate's count of delivery failures.
type verdict struct {
	Missing    int // expected alerts never delivered
	Unexpected int // delivered alerts the reference does not have
	Duplicates int // a sequence number delivered twice
	Gaps       int // sequence numbers skipped
	Markers    int // replay-truncated (or any other) marker envelopes
}

func (v verdict) failed() int {
	return v.Missing + v.Unexpected + v.Duplicates + v.Gaps + v.Markers
}

func (v verdict) String() string {
	return fmt.Sprintf("missing=%d unexpected=%d duplicates=%d gaps=%d markers=%d",
		v.Missing, v.Unexpected, v.Duplicates, v.Gaps, v.Markers)
}

// check compares what the subscriber read, in arrival order, with the
// reference: sequence numbers must run 1, 2, 3, … with no repeat and no
// hole, no marker may appear, and the multiset of alerts must be the
// reference's.
func check(ref *reference, got []received) verdict {
	var v verdict
	want := ref.multiset()
	var next uint64 = 1
	seen := make(map[uint64]bool, len(got))
	for _, r := range got {
		e := r.Env
		if e.Marker != "" {
			v.Markers++
			continue
		}
		switch {
		case seen[e.Seq]:
			v.Duplicates++
			continue
		case e.Seq > next:
			v.Gaps += int(e.Seq - next)
		}
		seen[e.Seq] = true
		if e.Seq >= next {
			next = e.Seq + 1
		}
		k := keyOf(e.Slide, e.Alert)
		if want[k] > 0 {
			want[k]--
		} else {
			v.Unexpected++
		}
	}
	for _, n := range want {
		v.Missing += n
	}
	return v
}
