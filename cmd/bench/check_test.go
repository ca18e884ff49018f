package main

import (
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/serve"
)

// fixture is a reference of three slides and the delivery a correct run
// reads for it.
func fixture() (*reference, []received) {
	q := time.Date(2009, 6, 1, 0, 5, 0, 0, time.UTC)
	alert := func(ce string, v uint32) maritime.Alert {
		return maritime.Alert{CE: ce, AreaID: "area-1", Time: q, Vessel: v}
	}
	ref := &reference{Slides: []slideAlerts{
		{Query: q, Alerts: []maritime.Alert{alert("illegalShipping", 1), alert("illegalShipping", 2)}},
		{Query: q.Add(5 * time.Minute)},
		{Query: q.Add(10 * time.Minute), Alerts: []maritime.Alert{alert("rendezvous", 3), alert("rendezvous", 3)}},
	}}
	var got []received
	var seq uint64
	for _, s := range ref.Slides {
		for _, a := range s.Alerts {
			seq++
			got = append(got, received{Env: serve.Envelope{Seq: seq, Slide: s.Query, Alert: a}})
		}
	}
	return ref, got
}

func TestCheckAcceptsTheReference(t *testing.T) {
	ref, got := fixture()
	if v := check(ref, got); v.failed() != 0 {
		t.Fatalf("a faithful delivery failed the gate: %s", v)
	}
}

func TestCheckCountsADroppedEnvelope(t *testing.T) {
	ref, got := fixture()
	got = append(got[:1], got[2:]...) // sequence 2 never arrives
	v := check(ref, got)
	if v.Missing != 1 || v.Gaps != 1 || v.Duplicates != 0 || v.Unexpected != 0 {
		t.Fatalf("dropped envelope: %s, want missing=1 gaps=1", v)
	}
}

func TestCheckCountsADuplicateAfterRedial(t *testing.T) {
	ref, got := fixture()
	// The subscriber re-dialled with Last-Event-ID 2 and the server
	// replayed from 2 instead of 3.
	got = append(got[:2:2], append([]received{got[1]}, got[2:]...)...)
	v := check(ref, got)
	if v.Duplicates != 1 || v.failed() != 1 {
		t.Fatalf("duplicate after re-dial: %s, want duplicates=1 and nothing else", v)
	}
}

func TestCheckCountsMarkersAndStrangers(t *testing.T) {
	ref, got := fixture()
	got = append(got, received{Env: serve.Envelope{Seq: 5, Marker: serve.MarkerReplayTruncated, Missing: 3}})
	got[0].Env.Alert.Vessel = 99 // an alert the reference does not have
	v := check(ref, got)
	if v.Markers != 1 || v.Unexpected != 1 || v.Missing != 1 {
		t.Fatalf("marker and stranger: %s, want markers=1 unexpected=1 missing=1", v)
	}
}
