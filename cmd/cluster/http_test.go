package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// TestClusterAlertsMatchesGateway: the cluster's /alerts is the
// gateway's handler — a malformed or negative n is a 400, only GET is
// routed, and no n returns the whole ring (not a default tail).
func TestClusterAlertsMatchesGateway(t *testing.T) {
	hub := serve.NewHub(256)
	slide := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 150; i++ {
		hub.Publish(slide, []maritime.Alert{{CE: "speeding", AreaID: "a1", Vessel: 237000001, Time: slide}})
	}
	srv := httptest.NewServer(mux(nil, nil, hub, obs.NewRegistry()))
	defer srv.Close()

	for _, q := range []string{"?n=abc", "?n=-1"} {
		resp, err := http.Get(srv.URL + "/alerts" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /alerts%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/alerts", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /alerts: status %d, want 405", resp.StatusCode)
	}
	for q, want := range map[string]int{"": 150, "?n=7": 7} {
		resp, err := http.Get(srv.URL + "/alerts" + q)
		if err != nil {
			t.Fatal(err)
		}
		var envs []serve.Envelope
		err = json.NewDecoder(resp.Body).Decode(&envs)
		resp.Body.Close()
		if err != nil || len(envs) != want {
			t.Errorf("GET /alerts%s: %d envelopes (err %v), want %d", q, len(envs), err, want)
		}
	}
}
