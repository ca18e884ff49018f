package main

import (
	"encoding/json"
	"net/http"
	"strconv"

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

// mux wires the cluster's HTTP surface: SSE alerts with Last-Event-ID
// replay from the hub ring, the alert-history tail, cluster health, and
// the metrics exposition.
func mux(coord *cluster.Coordinator, router *cluster.Router, hub *serve.Hub, reg *obs.Registry) http.Handler {
	m := http.NewServeMux()
	m.Handle("/metrics", reg.Handler())
	m.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
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
		writeJSON(w, p)
	})
	m.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if raw := r.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil && v > 0 {
				n = v
			}
		}
		writeJSON(w, hub.Ring().Last(n))
	})
	// The envelope sequence is the SSE event id, so a reconnecting client
	// resumes from Last-Event-ID and sees every alert exactly once —
	// including across a coordinator restart, because a manifest restore
	// continues the hub's sequence.
	m.Handle("/events", serve.EventsHandler(hub, 0, 0, nil))
	return m
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
