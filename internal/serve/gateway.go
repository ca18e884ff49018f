package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// Options configures a Gateway.
type Options struct {
	// RingSize is the alert-history retention for replay and /alerts
	// (≤ 0: 1024 envelopes).
	RingSize int
	// SubscriberQueue bounds each SSE subscriber's drop-oldest queue
	// (≤ 0: 256 envelopes).
	SubscriberQueue int
	// Heartbeat is the idle-connection keepalive interval of the SSE
	// stream (≤ 0: 15 s).
	Heartbeat time.Duration
	// Metrics, when set, mounts GET /metrics (Prometheus text format)
	// on the gateway mux and registers the hub's fan-out counters on
	// the registry. The pipeline's own metrics are the caller's to
	// register (core.System.RegisterMetrics on the same registry).
	Metrics *obs.Registry
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// Gateway is the serving tier over one core.System: it implements
// core.AlertSink to capture each slide's alerts into the fan-out hub
// and the history ring, and serves them (plus snapshot queries) over
// HTTP. Drive the pipeline through Process so snapshot queries never
// race a slide in flight.
type Gateway struct {
	sys *core.System
	hub *Hub
	opt Options

	// pipeMu serializes pipeline slides (write) against snapshot reads
	// of the tracker and the store (read). The SSE path does not take
	// it: alerts reach subscribers through the hub's own queues.
	pipeMu sync.RWMutex

	// repMu guards the latest slide report and stream bookkeeping; it is
	// taken inside Consume, which runs while pipeMu is write-held, so it
	// must never wrap a pipeMu acquisition.
	repMu     sync.RWMutex
	last      core.SlideReport
	slides    int
	streamEnd bool
}

// New wires a gateway over the system and registers it as an alert
// sink. The caller still owns the pipeline loop; route batches through
// Process.
func New(sys *core.System, opt Options) *Gateway {
	if opt.RingSize <= 0 {
		opt.RingSize = 1024
	}
	if opt.SubscriberQueue <= 0 {
		opt.SubscriberQueue = 256
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = 15 * time.Second
	}
	g := &Gateway{sys: sys, hub: NewHub(opt.RingSize), opt: opt}
	if opt.Metrics != nil {
		g.hub.RegisterMetrics(opt.Metrics)
	}
	sys.AddAlertSink(g)
	return g
}

// Hub exposes the fan-out hub (stats, direct subscriptions).
func (g *Gateway) Hub() *Hub { return g.hub }

// Process runs one batch through the pipeline under the gateway's
// write lock, so concurrent snapshot queries observe consistent state.
func (g *Gateway) Process(b stream.Batch) core.SlideReport {
	g.pipeMu.Lock()
	defer g.pipeMu.Unlock()
	return g.sys.ProcessBatch(b)
}

// Track forwards core.System.Track under the write lock.
func (g *Gateway) Track(b stream.Batch) {
	g.pipeMu.Lock()
	defer g.pipeMu.Unlock()
	g.sys.Track(b)
}

// ProcessTracked forwards core.System.ProcessTracked under the write
// lock. A slide it starts ahead is tracked after the lock is released;
// the tracker's own reads (/vessels) finish it before they look.
func (g *Gateway) ProcessTracked(ahead func() (stream.Batch, bool)) core.SlideReport {
	g.pipeMu.Lock()
	defer g.pipeMu.Unlock()
	return g.sys.ProcessTracked(ahead)
}

// Drain forwards core.System.Drain under the write lock, for drivers
// finishing a stream.
func (g *Gateway) Drain(last time.Time) {
	g.pipeMu.Lock()
	defer g.pipeMu.Unlock()
	g.sys.Drain(last)
}

// StreamEnded marks the input stream as finished; /healthz reports it
// so operators can tell "no alerts because the feed is over" from "no
// alerts yet".
func (g *Gateway) StreamEnded() {
	g.repMu.Lock()
	g.streamEnd = true
	g.repMu.Unlock()
}

// Consume implements core.AlertSink: it records the slide report and
// fans its alerts out to subscribers. It never blocks on slow clients.
// A replayed slide is published too — it puts the hub's sequence back
// where it was, and the hub fans out nothing it already has.
func (g *Gateway) Consume(rep core.SlideReport) {
	if !rep.Replay {
		g.repMu.Lock()
		g.last = rep
		g.slides++
		g.repMu.Unlock()
	}
	g.hub.Publish(rep.Query, rep.Alerts)
}

// Handler returns the gateway's HTTP mux:
//
//	GET /events           live SSE alert stream (?mmsi=&ce=&area=, Last-Event-ID replay)
//	GET /alerts           recent alert history from the ring buffer (?n=)
//	GET /healthz          pipeline health + hub fan-out accounting
//	GET /report           the latest slide report (metrics, timings)
//	GET /vessels          current per-vessel tracker state
//	GET /vessels/{mmsi}   one vessel's state + retained synopsis
//	GET /trips            archived trips (?mmsi= to restrict)
//	GET /od               the origin–destination matrix
//	GET /metrics          Prometheus text exposition (when Options.Metrics is set)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /events", EventsHandler(g.hub, g.opt.SubscriberQueue, g.opt.Heartbeat, g.logf))
	mux.HandleFunc("GET /alerts", AlertsHandler(g.hub))
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /report", g.handleReport)
	mux.HandleFunc("GET /vessels", g.handleVessels)
	mux.HandleFunc("GET /vessels/{mmsi}", g.handleVessel)
	mux.HandleFunc("GET /trips", g.handleTrips)
	mux.HandleFunc("GET /od", g.handleOD)
	if g.opt.Metrics != nil {
		mux.Handle("GET /metrics", g.opt.Metrics.Handler())
	}
	return mux
}

// EventsHandler returns the SSE endpoint every serving node mounts —
// the writer gateway, the stateless replicas and the cluster
// coordinator: one subscriber with a bounded drop-oldest queue of
// queueCap envelopes per connection (≤ 0: 256), pumped by the handler
// goroutine, with a comment heartbeat every heartbeat of idleness
// (≤ 0: 15 s). logf receives connect/disconnect lines; nil silences
// them.
func EventsHandler(hub *Hub, queueCap int, heartbeat time.Duration, logf func(format string, args ...any)) http.HandlerFunc {
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		pumpEvents(w, r, hub, queueCap, heartbeat, logf)
	}
}

// pumpEvents is the SSE pump: subscribe (resuming from Last-Event-ID
// when present), stream envelopes with heartbeats, release the
// subscription when the client goes away. Frames are flushed when the
// subscriber's queue runs dry, not one by one: a replay preload or a
// slide's burst leaves in as few writes as the buffer allows, and a
// lone live envelope — queue empty behind it — still leaves at once.
func pumpEvents(w http.ResponseWriter, r *http.Request, hub *Hub,
	queueCap int, heartbeat time.Duration, logf func(string, ...any)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	filter, err := ParseFilter(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	last, err := lastEventID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var sub *Subscriber
	if last != nil {
		sub = hub.SubscribeFrom(filter, queueCap, *last)
	} else {
		sub = hub.Subscribe(filter, queueCap)
	}
	defer sub.Close()
	// A client that vanishes leaves the pump blocked in NextTimeout;
	// closing the subscription on context cancellation releases it.
	stop := context.AfterFunc(r.Context(), sub.Close)
	defer stop()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	logf("subscriber %d connected (%s)", sub.ID(), r.RemoteAddr)
	defer logf("subscriber %d disconnected", sub.ID())
	for {
		env, ok, timedOut := sub.NextTimeout(heartbeat)
		switch {
		case timedOut:
			if writeComment(w, "hb") != nil {
				return
			}
		case !ok:
			return
		default:
			if writeEvent(w, env) != nil {
				return
			}
			if sub.Pending() > 0 {
				continue // more is queued: it rides in the same flush
			}
		}
		fl.Flush()
	}
}

// lastEventID extracts the SSE resume cursor from the Last-Event-ID
// header or an "after" query parameter; nil means a fresh session. A
// cursor that does not parse is an error: starting fresh instead would
// silently skip everything after it.
func lastEventID(r *http.Request) (*uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return nil, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("serve: bad resume cursor %q", raw)
	}
	return &v, nil
}

// AlertsHandler returns the alert-history endpoint every serving node
// mounts — the writer gateway, the replicas and the cluster
// coordinator: the newest ?n= envelopes of the hub's ring as JSON,
// oldest first, or the whole ring without n. A malformed or negative n
// is a 400.
func AlertsHandler(hub *Hub) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		WriteJSON(w, hub.Ring().Last(n))
	}
}

// HealthzPayload is the /healthz response body. Status is the
// pipeline's three-state summary: "ok", "degraded" (quarantined
// targets — rewinding to a checkpoint, or without checkpoints out of
// service until a restart — or the degradation ladder engaged), or
// "wedged" (a target faulted again while its first fault was being
// replayed and is fenced; only a restart brings it back).
type HealthzPayload struct {
	Status    string      `json:"status"` // "ok", "degraded", or "wedged"
	Slides    int         `json:"slides"`
	LastQuery time.Time   `json:"last_query"`
	StreamEnd bool        `json:"stream_ended"`
	Health    core.Health `json:"health"`
	Hub       HubStats    `json:"hub"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.repMu.RLock()
	p := HealthzPayload{
		Slides:    g.slides,
		LastQuery: g.last.Query,
		StreamEnd: g.streamEnd,
		Health:    g.last.Health,
	}
	g.repMu.RUnlock()
	p.Hub = g.hub.Stats()
	p.Status = p.Health.State()
	WriteJSON(w, p)
}

// slideReportPayload is the JSON shape of the latest slide report.
type slideReportPayload struct {
	Query          time.Time        `json:"query"`
	FixesIn        int              `json:"fixes_in"`
	CriticalPoints int              `json:"critical_points"`
	TripsCompleted int              `json:"trips_completed"`
	Alerts         []maritime.Alert `json:"alerts"`
	TimingsMicros  map[string]int64 `json:"timings_us"`
	Health         core.Health      `json:"health"`
}

func (g *Gateway) handleReport(w http.ResponseWriter, r *http.Request) {
	g.repMu.RLock()
	rep := g.last
	g.repMu.RUnlock()
	WriteJSON(w, slideReportPayload{
		Query:          rep.Query,
		FixesIn:        rep.FixesIn,
		CriticalPoints: rep.CriticalPoints,
		TripsCompleted: rep.TripsCompleted,
		Alerts:         rep.Alerts,
		TimingsMicros: map[string]int64{
			"tracking":       rep.Timings.Tracking.Microseconds(),
			"staging":        rep.Timings.Staging.Microseconds(),
			"reconstruction": rep.Timings.Reconstruction.Microseconds(),
			"loading":        rep.Timings.Loading.Microseconds(),
			"recognition":    rep.Timings.Recognition.Microseconds(),
			"analytics":      rep.Timings.Analytics.Microseconds(),
			"total":          rep.Timings.Wall.Microseconds(),
		},
		Health: rep.Health,
	})
}

func (g *Gateway) handleVessels(w http.ResponseWriter, r *http.Request) {
	g.pipeMu.RLock()
	infos := g.sys.Tracker().Infos()
	g.pipeMu.RUnlock()
	WriteJSON(w, infos)
}

// vesselPayload is one vessel's state plus its retained synopsis.
type vesselPayload struct {
	tracker.VesselInfo
	Synopsis []synopsisPoint `json:"synopsis"`
}

// synopsisPoint is the JSON shape of one retained critical point.
type synopsisPoint struct {
	Type    string    `json:"type"`
	Time    time.Time `json:"time"`
	Lon     float64   `json:"lon"`
	Lat     float64   `json:"lat"`
	SpeedKn float64   `json:"speed_kn"`
}

func (g *Gateway) handleVessel(w http.ResponseWriter, r *http.Request) {
	mmsi, err := strconv.ParseUint(r.PathValue("mmsi"), 10, 32)
	if err != nil {
		http.Error(w, "bad mmsi", http.StatusBadRequest)
		return
	}
	g.pipeMu.RLock()
	info, ok := g.sys.Tracker().Info(uint32(mmsi))
	var synopsis []tracker.CriticalPoint
	if ok {
		synopsis = g.sys.Tracker().Synopsis(uint32(mmsi))
	}
	g.pipeMu.RUnlock()
	if !ok {
		http.Error(w, "unknown vessel", http.StatusNotFound)
		return
	}
	p := vesselPayload{VesselInfo: info, Synopsis: make([]synopsisPoint, 0, len(synopsis))}
	for _, cp := range synopsis {
		p.Synopsis = append(p.Synopsis, synopsisPoint{
			Type:    cp.Type.String(),
			Time:    cp.Time,
			Lon:     cp.Pos.Lon,
			Lat:     cp.Pos.Lat,
			SpeedKn: cp.SpeedKn,
		})
	}
	WriteJSON(w, p)
}

// tripPayload summarizes one archived trip.
type tripPayload struct {
	MMSI      uint32    `json:"mmsi"`
	Origin    string    `json:"origin,omitempty"`
	Dest      string    `json:"dest"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
	Points    int       `json:"points"`
	DistanceM float64   `json:"distance_m"`
}

func (g *Gateway) handleTrips(w http.ResponseWriter, r *http.Request) {
	var mmsi uint64
	var byVessel bool
	if raw := r.URL.Query().Get("mmsi"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			http.Error(w, "bad mmsi", http.StatusBadRequest)
			return
		}
		mmsi, byVessel = v, true
	}
	g.pipeMu.RLock()
	store := g.sys.Store()
	trips := store.Trips()
	if byVessel {
		trips = store.TripsOf(uint32(mmsi))
	}
	out := make([]tripPayload, 0, len(trips))
	for _, t := range trips {
		out = append(out, tripPayload{
			MMSI:      t.MMSI,
			Origin:    t.Origin,
			Dest:      t.Dest,
			Start:     t.Start,
			End:       t.End,
			Points:    len(t.Points),
			DistanceM: t.DistanceMeters(),
		})
	}
	g.pipeMu.RUnlock()
	WriteJSON(w, out)
}

// odPayload is one origin–destination connection with its trip count.
type odPayload struct {
	Origin string `json:"origin,omitempty"`
	Dest   string `json:"dest"`
	Trips  int    `json:"trips"`
}

func (g *Gateway) handleOD(w http.ResponseWriter, r *http.Request) {
	g.pipeMu.RLock()
	matrix := g.sys.Store().ODMatrix()
	g.pipeMu.RUnlock()
	out := make([]odPayload, 0, len(matrix))
	for pair, n := range matrix {
		out = append(out, odPayload{Origin: pair.Origin, Dest: pair.Dest, Trips: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Dest < out[j].Dest
	})
	WriteJSON(w, out)
}

// WriteJSON renders v, indented, with an application/json content type.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed encode means the client went away mid-body; the status
	// line is already on the wire, so there is nothing left to report.
	_ = enc.Encode(v)
}

func (g *Gateway) logf(format string, args ...any) {
	if g.opt.Logf != nil {
		g.opt.Logf(format, args...)
	}
}
