// Live monitor: the control-center deployment the paper targets (§7) —
// an in-process feed server replays a simulated Aegean fleet at 600×
// real time over TCP, and a monitoring client consumes the live NMEA
// stream, tracks trajectories, recognizes complex events, and screens
// the fleet for collision courses (the analytics tier's
// collisionCourse alerts).
//
// The wire is deliberately unreliable: the stream is routed through a
// fault-injection proxy that resets the connection mid-replay and
// corrupts the occasional sentence, so the run also demonstrates the
// fault-tolerance layer — reconnect with resume, bounded ingest
// buffering, the recognition watchdog, and the health summary that
// accounts for every lost message.
//
// The session also runs the alert gateway (internal/serve) on
// loopback; with -sse the CE alerts are printed by an SSE subscriber
// consuming the gateway's /events stream instead of the local sink —
// the same wire any external operator console would use.
//
//	go run ./examples/livemonitor
//	go run ./examples/livemonitor -sse
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

func main() {
	viaSSE := flag.Bool("sse", false, "print CE alerts via the gateway's SSE stream instead of the local sink")
	flag.Parse()
	// The "at-sea" side: a feed server replaying three simulated hours.
	simCfg := fleetsim.DefaultConfig()
	simCfg.Vessels = 150
	simCfg.Duration = 3 * time.Hour
	sim := fleetsim.NewSimulator(simCfg)
	fixes := sim.Run()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &feed.Server{Source: feed.NewReplay(fixes), Speedup: 600, HandshakeWait: feed.DefaultHandshakeWait} // 3 h in ~18 s
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh); err != nil {
			fmt.Fprintln(os.Stderr, "feed:", err)
		}
	}()
	addr := (<-addrCh).String()

	// A hostile stretch of wire between ship and shore: the connection
	// is severed (mid-sentence) partway through the replay, and one
	// sentence in 400 arrives corrupted.
	proxy := &faults.Proxy{
		Upstream: addr,
		Plan: faults.Plan{
			Seed:            7,
			ResetAfterLines: []int{2000},
			TruncateOnReset: true,
			CorruptEvery:    400,
		},
	}
	proxyCh := make(chan net.Addr, 1)
	go func() {
		if err := proxy.ListenAndServe(ctx, "127.0.0.1:0", proxyCh); err != nil {
			fmt.Fprintln(os.Stderr, "proxy:", err)
		}
	}()
	proxyAddr := (<-proxyCh).String()
	fmt.Printf("live AIS feed on %s (%d fixes at 600x, via a faulty link)\n\n", proxyAddr, len(fixes))

	// The control-center side.
	vessels, areas, ports := core.AdaptWorld(sim)
	window := stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	sys := core.NewSystem(core.Config{
		Window:          window,
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: window.Range},
		WatchdogTimeout: 5 * time.Second,
		Analytics:       &analytics.Config{EnableCollision: true},
	}, vessels, areas, ports)

	// The serving tier: an alert gateway over the same system, exposed
	// on loopback for any SSE consumer or curl, with the observability
	// registry covering every tier of this session.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	sys.RegisterMetrics(reg)
	gw := serve.New(sys, serve.Options{Heartbeat: 2 * time.Second, Metrics: reg})
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go func() { _ = http.Serve(gwLn, gw.Handler()) }()
	gwURL := "http://" + gwLn.Addr().String()
	fmt.Printf("alert gateway on %s (try: curl -N %s/events, curl %s/metrics)\n\n", gwURL, gwURL, gwURL)

	// CE alerts are printed either by the shared writer sink, or — with
	// -sse — by a subscriber consuming the gateway's own event stream.
	var sseWG sync.WaitGroup
	sseCtx, stopSSE := context.WithCancel(ctx)
	defer stopSSE()
	if *viaSSE {
		sseWG.Add(1)
		go func() {
			defer sseWG.Done()
			err := serve.StreamAlerts(sseCtx, gwURL+"/events", 0, func(e serve.Envelope) {
				fmt.Printf("CE ALERT   %s  [sse #%d]\n", e.Alert, e.Seq)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sse:", err)
			}
		}()
	} else {
		sys.AddAlertSink(core.NewWriterSink(os.Stdout, "CE ALERT   "))
	}

	client, err := feed.DialReconnecting(proxyAddr, feed.DefaultRetryPolicy())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	client.RegisterMetrics(reg)
	// The ingest stage reads the feed a slide ahead of the pipeline and
	// sheds the oldest fixes should the backlog pass 16 Ki.
	stage := stream.NewIngestStage(stream.NewBatcher(client, window.Slide), 1<<14)
	defer func() {
		client.Close()
		stage.Close()
	}()
	stage.RegisterMetrics(reg)
	sys.AddHealthSource(core.LiveHealthSource(client, stage))

	alertCount := 0
	var lastQ time.Time
	for {
		batch, ok := stage.Next()
		if !ok {
			break
		}
		lastQ = batch.Query
		alertCount += len(gw.Process(batch).Alerts)
		stage.Recycle(batch)
	}
	if err := stage.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "client:", err)
	}
	if *viaSSE {
		// Let the subscriber drain the last slide's alerts off the hub
		// before tearing the stream down.
		time.Sleep(200 * time.Millisecond)
		stopSSE()
		sseWG.Wait()
	}

	fmt.Printf("\nfeed ended at %s; %d complex events recognized\n", lastQ.Format("15:04"), alertCount)
	fmt.Printf("pipeline health: %s\n", sys.Health())
	hubStats := gw.Hub().Stats()
	fmt.Printf("gateway fan-out: %d published, %d delivered, %d dropped\n",
		hubStats.Published, hubStats.Delivered, hubStats.Dropped)
}
