package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// newTestGateway builds a gateway over a minimal system; alerts are
// injected directly through Consume (the core.AlertSink entry point),
// so tests control exactly what is published.
func newTestGateway(t *testing.T, opt Options) *Gateway {
	t.Helper()
	sys := core.NewSystem(core.Config{
		Window:             stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute},
		Tracker:            tracker.DefaultParams(),
		DisableRecognition: true,
	}, nil, nil, nil)
	return New(sys, opt)
}

// report wraps alerts in a slide report for Consume.
func report(q time.Time, alerts ...maritime.Alert) core.SlideReport {
	return core.SlideReport{Query: q, Alerts: alerts}
}

func TestSSEFilteredStream(t *testing.T) {
	g := newTestGateway(t, Options{Heartbeat: 50 * time.Millisecond})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var mu sync.Mutex
	var got []Envelope
	done := make(chan error, 1)
	go func() {
		done <- StreamAlerts(ctx, srv.URL+"/events?mmsi=111", 0, func(e Envelope) {
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		})
	}()
	// Give the subscriber time to attach before publishing.
	waitFor(t, func() bool { return g.Hub().Stats().Subscribers == 1 })

	g.Consume(report(t0,
		maritime.Alert{CE: maritime.CEIllegalShipping, AreaID: "a1", Time: t0, Vessel: 111},
		maritime.Alert{CE: maritime.CEDangerousShipping, AreaID: "a2", Time: t0, Vessel: 222},
		maritime.Alert{CE: maritime.CESuspicious, AreaID: "a3", Time: t0}, // durative: no vessel
	))
	g.Consume(report(t0.Add(time.Minute),
		maritime.Alert{CE: maritime.CEDangerousShipping, AreaID: "a4", Time: t0.Add(time.Minute), Vessel: 111},
	))

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 2 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("StreamAlerts: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("got %d envelopes, want exactly the 2 matching MMSI 111", len(got))
	}
	if got[0].Alert.AreaID != "a1" || got[1].Alert.AreaID != "a4" {
		t.Fatalf("wrong alerts delivered: %+v", got)
	}
	for _, e := range got {
		if e.Alert.Vessel != 111 {
			t.Fatalf("filter leaked vessel %d", e.Alert.Vessel)
		}
	}
}

func TestSSEReconnectReplayWithLastEventID(t *testing.T) {
	g := newTestGateway(t, Options{Heartbeat: 50 * time.Millisecond, RingSize: 64})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// First session: read two envelopes, then drop the connection.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var lastSeen uint64
	count := 0
	firstDone := make(chan error, 1)
	sawTwo := make(chan struct{})
	go func() {
		firstDone <- StreamAlerts(ctx1, srv.URL+"/events", 0, func(e Envelope) {
			count++
			lastSeen = e.Seq
			if count == 2 {
				close(sawTwo)
			}
		})
	}()
	waitFor(t, func() bool { return g.Hub().Stats().Subscribers == 1 })
	for i := 0; i < 3; i++ {
		g.Consume(report(t0.Add(time.Duration(i)*time.Minute),
			maritime.Alert{CE: maritime.CEIllegalShipping, AreaID: fmt.Sprintf("a%d", i+1), Time: t0, Vessel: 9}))
	}
	<-sawTwo
	cancel1()
	<-firstDone

	// While the client is away, more alerts arrive.
	for i := 3; i < 6; i++ {
		g.Consume(report(t0.Add(time.Duration(i)*time.Minute),
			maritime.Alert{CE: maritime.CEIllegalShipping, AreaID: fmt.Sprintf("a%d", i+1), Time: t0, Vessel: 9}))
	}

	// Second session resumes after the last id it saw: it must receive
	// every later envelope exactly once, in order.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	var mu sync.Mutex
	var seqs []uint64
	secondDone := make(chan error, 1)
	go func() {
		secondDone <- StreamAlerts(ctx2, srv.URL+"/events", lastSeen, func(e Envelope) {
			mu.Lock()
			seqs = append(seqs, e.Seq)
			mu.Unlock()
		})
	}()
	wantN := 6 - int(lastSeen)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(seqs) >= wantN })
	cancel2()
	if err := <-secondDone; err != nil {
		t.Fatalf("resume session: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != wantN {
		t.Fatalf("resume delivered %d envelopes, want %d (no duplicates)", len(seqs), wantN)
	}
	for i, s := range seqs {
		if want := lastSeen + uint64(i) + 1; s != want {
			t.Fatalf("resume seq %d = %d, want %d", i, s, want)
		}
	}
}

// TestStalledSSESubscriberDropsOnlyItsOwn verifies the acceptance
// criterion end to end over real sockets: a subscriber that stops
// reading overflows its own bounded queue (visible in /healthz) while
// a healthy subscriber keeps receiving everything and Publish never
// blocks the pipeline.
func TestStalledSSESubscriberDropsOnlyItsOwn(t *testing.T) {
	g := newTestGateway(t, Options{Heartbeat: time.Hour, SubscriberQueue: 8})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// The stalled client: a raw connection that sends the request and
	// never reads the response, so the server-side pump blocks on the
	// socket once the kernel buffers fill.
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /events HTTP/1.1\r\nHost: x\r\nAccept: text/event-stream\r\n\r\n")

	// The healthy client.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var healthyN int64
	var mu sync.Mutex
	done := make(chan error, 1)
	go func() {
		done <- StreamAlerts(ctx, srv.URL+"/events", 0, func(e Envelope) {
			mu.Lock()
			healthyN++
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool { return g.Hub().Stats().Subscribers == 2 })

	// Publish until the stalled subscriber shows drops, pacing to the
	// healthy reader so its bounded queue never overflows. The padded
	// area id fattens each frame so the kernel buffers fill quickly.
	pad := strings.Repeat("x", 16384)
	deadline := time.Now().Add(20 * time.Second)
	published := 0
	for time.Now().Before(deadline) && g.Hub().Stats().Dropped == 0 {
		g.Consume(report(t0.Add(time.Duration(published)*time.Second),
			maritime.Alert{CE: maritime.CESuspicious, AreaID: pad, Time: t0}))
		published++
		for time.Now().Before(deadline) {
			mu.Lock()
			n := healthyN
			mu.Unlock()
			if n >= int64(published) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	st := g.Hub().Stats()
	if st.Dropped == 0 {
		t.Fatalf("stalled subscriber never dropped after %d published", published)
	}

	// The healthy subscriber received every envelope (the publish loop
	// paced itself to it, so this holds by construction).
	mu.Lock()
	gotAll := healthyN >= int64(published)
	mu.Unlock()
	if !gotAll {
		t.Fatalf("healthy subscriber fell behind: %d of %d", healthyN, published)
	}

	// /healthz reports the asymmetry: one subscriber with drops, one
	// without.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz HealthzPayload
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Hub.Dropped == 0 {
		t.Fatal("/healthz shows no drops for the stalled subscriber")
	}
	var withDrops, without int
	for _, s := range hz.Hub.Subs {
		if s.Dropped > 0 {
			withDrops++
		} else {
			without++
		}
	}
	if withDrops != 1 || without != 1 {
		t.Fatalf("per-subscriber drops = %+v, want exactly one stalled", hz.Hub.Subs)
	}
	cancel()
	<-done
}

// TestGatewaySnapshots runs a real (small) pipeline through the gateway
// and exercises every snapshot endpoint.
func TestGatewaySnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 40
	cfg.Duration = 2 * time.Hour
	cfg.Seed = 3
	sim := fleetsim.NewSimulator(cfg)
	vessels, areas, ports := core.AdaptWorld(sim)
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	sys := core.NewSystem(core.Config{
		Window:      window,
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: window.Range},
	}, vessels, areas, ports)
	g := New(sys, Options{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	batcher := stream.NewBatcher(stream.NewSliceSource(sim.Run()), window.Slide)
	var last time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		last = g.Process(b).Query
	}

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var infos []tracker.VesselInfo
	if code := getJSON("/vessels", &infos); code != 200 {
		t.Fatalf("/vessels: %d", code)
	}
	if len(infos) == 0 {
		t.Fatal("/vessels returned no tracked vessels")
	}

	var vp vesselPayload
	path := fmt.Sprintf("/vessels/%d", infos[0].MMSI)
	if code := getJSON(path, &vp); code != 200 {
		t.Fatalf("%s: %d", path, code)
	}
	if vp.MMSI != infos[0].MMSI {
		t.Fatalf("%s returned vessel %d", path, vp.MMSI)
	}
	var missing struct{}
	if code := getJSON("/vessels/999999999", &missing); code != http.StatusNotFound {
		t.Fatalf("unknown vessel returned %d, want 404", code)
	}

	// Draining evicts tracker state and archives the staged trips, so
	// the vessel snapshots above had to come first.
	g.Drain(last)
	g.StreamEnded()

	var rep slideReportPayload
	if code := getJSON("/report", &rep); code != 200 {
		t.Fatalf("/report: %d", code)
	}
	if rep.Query.IsZero() {
		t.Fatal("/report has no query time")
	}
	for _, stage := range []string{"tracking", "staging", "reconstruction", "loading", "recognition", "analytics", "total"} {
		if _, ok := rep.TimingsMicros[stage]; !ok {
			t.Errorf("/report timings_us has no %q: %v", stage, rep.TimingsMicros)
		}
	}

	var hz HealthzPayload
	if code := getJSON("/healthz", &hz); code != 200 {
		t.Fatalf("/healthz: %d", code)
	}
	if hz.Status != "ok" || hz.Slides == 0 || !hz.StreamEnd {
		t.Fatalf("/healthz = %+v", hz)
	}

	var trips []tripPayload
	if code := getJSON("/trips", &trips); code != 200 {
		t.Fatalf("/trips: %d", code)
	}
	var od []odPayload
	if code := getJSON("/od", &od); code != 200 {
		t.Fatalf("/od: %d", code)
	}
	var alerts []Envelope
	if code := getJSON("/alerts?n=10", &alerts); code != 200 {
		t.Fatalf("/alerts: %d", code)
	}
	if len(alerts) > 0 && alerts[0].Seq == 0 {
		t.Fatal("/alerts envelopes missing sequence numbers")
	}
}

// TestSSEWireFormat checks the raw frames: id/event/data lines and the
// heartbeat comment.
// TestHealthzThreeStates drives the /healthz status through the full
// supervision ladder: healthy, degraded-but-recovering (quarantined
// target or degradation rung engaged), and wedged (a target abandoned
// past the give-up threshold).
func TestHealthzThreeStates(t *testing.T) {
	g := newTestGateway(t, Options{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	status := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz HealthzPayload
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status
	}

	q := time.Unix(3600, 0).UTC()
	g.Consume(core.SlideReport{Query: q, Health: core.Health{}})
	if s := status(); s != "ok" {
		t.Errorf("healthy pipeline status = %q, want ok", s)
	}
	g.Consume(core.SlideReport{Query: q, Health: core.Health{Quarantined: 1}})
	if s := status(); s != "degraded" {
		t.Errorf("quarantined target status = %q, want degraded", s)
	}
	g.Consume(core.SlideReport{Query: q, Health: core.Health{DegradationLevel: 2}})
	if s := status(); s != "degraded" {
		t.Errorf("degradation rung status = %q, want degraded", s)
	}
	g.Consume(core.SlideReport{Query: q, Health: core.Health{Failed: 1}})
	if s := status(); s != "wedged" {
		t.Errorf("abandoned target status = %q, want wedged", s)
	}
}

func TestSSEWireFormat(t *testing.T) {
	g := newTestGateway(t, Options{Heartbeat: 30 * time.Millisecond})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
	waitFor(t, func() bool { return g.Hub().Stats().Subscribers == 1 })
	g.Consume(report(t0, maritime.Alert{CE: maritime.CEIllegalShipping, AreaID: "a1", Time: t0, Vessel: 5}))

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sc := bufio.NewScanner(conn)
	var sawID, sawEvent, sawData, sawHeartbeat bool
	for sc.Scan() && !(sawID && sawEvent && sawData && sawHeartbeat) {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: 1"):
			sawID = true
		case line == "event: alert":
			sawEvent = true
		case strings.HasPrefix(line, "data: {"):
			sawData = true
			var e Envelope
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad data payload: %v", err)
			}
			if e.Seq != 1 || e.Alert.Vessel != 5 {
				t.Fatalf("payload = %+v", e)
			}
		case strings.HasPrefix(line, ": hb"):
			sawHeartbeat = true
		}
	}
	if !sawID || !sawEvent || !sawData || !sawHeartbeat {
		t.Fatalf("frames missing: id=%v event=%v data=%v hb=%v", sawID, sawEvent, sawData, sawHeartbeat)
	}
}

// TestEventsRejectsMalformedCursor: a resume cursor that does not parse
// is a 400, not a fresh stream that silently skips everything after it.
func TestEventsRejectsMalformedCursor(t *testing.T) {
	g := newTestGateway(t, Options{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		name, query, lastEventID string
		want                     int
	}{
		{"after=abc", "?after=abc", "", http.StatusBadRequest},
		{"Last-Event-ID: x", "", "x", http.StatusBadRequest},
		{"after=-1", "?after=-1", "", http.StatusBadRequest},
		{"no cursor", "", "", http.StatusOK},
		{"after=0", "?after=0", "", http.StatusOK},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.lastEventID != "" {
			req.Header.Set("Last-Event-ID", tc.lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		cancel()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// flushRecorder is a ResponseWriter that counts Flush calls and records
// how many whole SSE frames had been written at each one.
type flushRecorder struct {
	mu      sync.Mutex
	header  http.Header
	body    strings.Builder
	flushes []int // frames ("\n\n"-terminated) in body at each Flush
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(p)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes = append(f.flushes, strings.Count(f.body.String(), "\n\n"))
}

func (f *flushRecorder) snapshot() (body string, flushes []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.String(), append([]int(nil), f.flushes...)
}

// TestEventsFlushOnDrainNotPerEnvelope: the pump flushes when the
// subscriber's queue runs dry — a 200-envelope replay preload costs a
// constant number of flushes, a lone live envelope still leaves at
// once — and the frames on the wire are what a per-envelope flush
// wrote.
func TestEventsFlushOnDrainNotPerEnvelope(t *testing.T) {
	const preload = 200
	hub := NewHub(1024)
	var alerts []maritime.Alert
	for i := 0; i < preload; i++ {
		alerts = append(alerts, maritime.Alert{CE: maritime.CEIllegalShipping, AreaID: "a1", Time: t0, Vessel: uint32(100 + i)})
	}
	hub.Publish(t0, alerts)

	ctx, cancel := context.WithCancel(context.Background())
	rec := &flushRecorder{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodGet, "/events?after=0", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		EventsHandler(hub, 256, time.Hour, nil)(rec, req)
	}()
	waitFor(t, func() bool {
		_, fl := rec.snapshot()
		return len(fl) > 0 && fl[len(fl)-1] == preload
	})
	_, fl := rec.snapshot()
	if len(fl) > 3 {
		t.Fatalf("%d flushes for a %d-envelope preload, want O(1): %v", len(fl), preload, fl)
	}

	// One live envelope into an idle stream: flushed on its own.
	hub.Publish(t0.Add(time.Minute), []maritime.Alert{{CE: maritime.CEDangerousShipping, AreaID: "a2", Time: t0, Vessel: 7}})
	waitFor(t, func() bool {
		_, now := rec.snapshot()
		return len(now) == len(fl)+1 && now[len(now)-1] == preload+1
	})
	cancel()
	<-done

	// Byte-identical framing: every frame is what writeEvent renders.
	var want strings.Builder
	for _, e := range hub.Ring().Last(0) {
		if err := writeEvent(&want, e); err != nil {
			t.Fatal(err)
		}
	}
	if body, _ := rec.snapshot(); body != want.String() {
		t.Fatalf("SSE bytes changed with the flush policy:\n got %q\nwant %q", body[:min(len(body), 200)], want.String()[:200])
	}
}

// TestReplicaHealthzReportsNotify: the replica's /healthz says whether
// its tailer is being woken or is polling, beside the keys it always
// had.
func TestReplicaHealthzReportsNotify(t *testing.T) {
	rp := NewReplica(NewHub(8), ReplicaOptions{Name: "r1", Info: func() ReplicaInfo {
		return ReplicaInfo{Name: "r1", Applied: 7, Lag: 1, Notify: true}
	}})
	srv := httptest.NewServer(rp.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Replica map[string]any `json:"replica"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "applied", "lag", "skipped", "notify"} {
		if _, ok := got.Replica[key]; !ok {
			t.Errorf("/healthz replica block lacks %q: %v", key, got.Replica)
		}
	}
	if got.Replica["notify"] != true || got.Replica["applied"] != float64(7) {
		t.Fatalf("/healthz replica block = %v", got.Replica)
	}
}
