package serve

import (
	"net/http"
	"time"
)

// ReplicaInfo is the health payload a replica reports beside its hub
// stats — filled by the owner's Info callback so this package stays
// independent of the log implementation (the tailer lives above serve
// in the import graph).
type ReplicaInfo struct {
	// Name identifies the replica in logs and metrics labels.
	Name string `json:"name"`
	// Applied is the newest log sequence the replica has re-published.
	Applied uint64 `json:"applied"`
	// Lag is how many durable records it has not applied yet.
	Lag uint64 `json:"lag"`
	// Skipped counts sequences lost to pruning/corruption from this
	// replica's point of view.
	Skipped uint64 `json:"skipped"`
	// Notify reports whether the tailer is woken by the kernel when the
	// log directory changes (true) or is polling on its back-off ladder
	// (false: directory missing, or no notification on this platform or
	// filesystem).
	Notify bool `json:"notify"`
}

// ReplicaOptions configures a Replica.
type ReplicaOptions struct {
	// Name identifies the replica in /healthz and log lines.
	Name string
	// SubscriberQueue bounds each SSE subscriber's drop-oldest queue
	// (≤ 0: 256 envelopes).
	SubscriberQueue int
	// Heartbeat is the idle-connection keepalive interval of the SSE
	// stream (≤ 0: 15 s).
	Heartbeat time.Duration
	// Info, when set, supplies the tailing position for /healthz.
	Info func() ReplicaInfo
	// Metrics, when set, mounts GET /metrics on the replica mux. The
	// caller registers whatever series it wants on the registry (the
	// hub's via Hub.RegisterMetrics, the tailer's via
	// Tailer.RegisterMetrics).
	Metrics interface{ Handler() http.Handler }
	// Logf receives lifecycle messages; nil silences them.
	Logf func(format string, args ...any)
}

// Replica is a stateless alert-serving node: it owns a hub fed through
// Hub.PublishEnvelopes by a log tailer and serves the same /events SSE
// protocol as the writer gateway — same sequence numbers, same
// Last-Event-ID replay — without running a pipeline. Kill it and start
// another: subscribers reconnect anywhere with their last id and
// resume exactly-once.
type Replica struct {
	hub *Hub
	opt ReplicaOptions
}

// NewReplica wires a replica around the hub (which should have a
// replay source attached via Hub.AttachReplay so reconnects can reach
// past the ring).
func NewReplica(hub *Hub, opt ReplicaOptions) *Replica {
	if opt.Name == "" {
		opt.Name = "replica"
	}
	if opt.SubscriberQueue <= 0 {
		opt.SubscriberQueue = 256
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = 15 * time.Second
	}
	return &Replica{hub: hub, opt: opt}
}

// Hub exposes the replica's fan-out hub.
func (rp *Replica) Hub() *Hub { return rp.hub }

// replicaHealth is the /healthz response body of a replica.
type replicaHealth struct {
	Status  string      `json:"status"` // always "ok": a live replica serves
	Replica ReplicaInfo `json:"replica"`
	Hub     HubStats    `json:"hub"`
}

// Handler returns the replica's HTTP mux:
//
//	GET /events   live SSE alert stream (?mmsi=&ce=&area=, Last-Event-ID replay)
//	GET /alerts   recent alert history from the ring buffer (?n=)
//	GET /healthz  tail position + hub fan-out accounting
//	GET /metrics  Prometheus text exposition (when Options.Metrics is set)
func (rp *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /events", EventsHandler(rp.hub, rp.opt.SubscriberQueue, rp.opt.Heartbeat, rp.logf))
	mux.HandleFunc("GET /alerts", AlertsHandler(rp.hub))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		p := replicaHealth{Status: "ok", Hub: rp.hub.Stats()}
		p.Replica.Name = rp.opt.Name
		if rp.opt.Info != nil {
			p.Replica = rp.opt.Info()
		}
		WriteJSON(w, p)
	})
	if rp.opt.Metrics != nil {
		mux.Handle("GET /metrics", rp.opt.Metrics.Handler())
	}
	return mux
}

func (rp *Replica) logf(format string, args ...any) {
	if rp.opt.Logf != nil {
		rp.opt.Logf("["+rp.opt.Name+"] "+format, args...)
	}
}
