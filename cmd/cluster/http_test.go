package main

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestClusterEventsMarkerKeepsItsEventName: a cluster subscriber whose
// cursor predates the ring gets the replay-truncated marker under its
// own SSE event name — the hand-copied pump this mux used to carry
// wrote every envelope, markers included, as "event: alert".
func TestClusterEventsMarkerKeepsItsEventName(t *testing.T) {
	hub := serve.NewHub(4)
	slide := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		hub.Publish(slide, []maritime.Alert{{CE: "speeding", AreaID: "a1", Vessel: 237000001, Time: slide}})
	}
	// /events touches only the hub; coordinator and router serve /healthz.
	srv := httptest.NewServer(mux(nil, nil, hub, obs.NewRegistry()))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events?after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []string // "event:" lines of the first five frames: marker + ring 7..10
	sc := bufio.NewScanner(resp.Body)
	for len(events) < 5 && sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, name)
		}
	}
	want := []string{serve.MarkerReplayTruncated, "alert", "alert", "alert", "alert"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("event names %v, want %v", events, want)
	}
}
