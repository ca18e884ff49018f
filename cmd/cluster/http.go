package main

import (
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// healthzPayload is the cluster's /healthz shape: the folded worker
// health plus the coordinator's merge accounting.
type healthzPayload struct {
	Status       string              `json:"status"`
	Health       core.Health         `json:"health"`
	SlidesMerged int                 `json:"slides_merged"`
	ForcedMerges int                 `json:"forced_merges"`
	Dropped      map[string]int      `json:"dropped_slides,omitempty"`
	Alerts       int                 `json:"alerts"`
	Manifests    int                 `json:"manifests"`
	Hub          serve.HubStats      `json:"hub"`
	Router       cluster.RouterStats `json:"router"`
}

// mux wires the cluster's HTTP surface, the same endpoints as the
// single-process gateway:
//
//	GET /events   live SSE alert stream (Last-Event-ID replay from the hub ring)
//	GET /alerts   alert history from the hub ring (?n= newest; all without n)
//	GET /healthz  folded worker health, merge and router accounting
//	GET /metrics  Prometheus text exposition
func mux(coord *cluster.Coordinator, router *cluster.Router, hub *serve.Hub, reg *obs.Registry) http.Handler {
	m := http.NewServeMux()
	m.Handle("GET /metrics", reg.Handler())
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := coord.Stats()
		h := coord.Health()
		p := healthzPayload{
			Status:       h.State(),
			Health:       h,
			SlidesMerged: st.SlidesMerged,
			ForcedMerges: st.ForcedMerges,
			Dropped:      st.DropsByCause,
			Alerts:       st.Alerts,
			Manifests:    st.Manifests,
			Hub:          hub.Stats(),
			Router:       router.Stats(),
		}
		serve.WriteJSON(w, p)
	})
	m.HandleFunc("GET /alerts", serve.AlertsHandler(hub))
	// The envelope sequence is the SSE event id, so a reconnecting client
	// resumes from Last-Event-ID and sees every alert exactly once —
	// including across a coordinator restart, because a manifest restore
	// continues the hub's sequence.
	m.Handle("GET /events", serve.EventsHandler(hub, 0, 0, nil))
	return m
}
