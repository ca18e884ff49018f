package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// A stalled worker must degrade only its own slice: the coordinator
// forces the oldest slide through once the healthy workers' queues pass
// QueueCap, ledgers the laggard's late output, reports the cluster as
// degraded while the stall lasts — and still finishes, with the health
// state recovering once the laggard catches up.
func TestClusterStalledWorkerDegradesGracefully(t *testing.T) {
	sim, raw := testFleet(t, 60, 2)
	fixes := canonFixes(t, raw)
	vessels, areas, ports := core.AdaptWorld(sim)
	gridStart := fixes[0].Time.Truncate(testSlide)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const workers = 3
	const laggard = 1
	router := NewRouter(RouterOptions{
		Workers:        workers,
		RetainFixes:    len(fixes) + 1,
		KeepaliveEvery: 250 * time.Millisecond,
	})
	addrs, err := router.ListenSlices(ctx, nil)
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}

	// The laggard reaches its slice through a fault proxy that stalls
	// the stream — the wire-level picture of an intermittent link.
	proxy := &faults.Proxy{
		Upstream: addrs[laggard].String(),
		Plan:     faults.Plan{StallEvery: 1000, StallFor: 20 * time.Millisecond},
	}
	addrCh := make(chan net.Addr, 1)
	go proxy.ListenAndServe(ctx, "127.0.0.1:0", addrCh)
	proxyAddr := <-addrCh

	sysCfg := core.Config{
		Window:      stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: time.Hour},
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:  workers,
		System:   sysCfg,
		Vessels:  vessels,
		Areas:    areas,
		QueueCap: 2, // overflow quickly so the forced-merge path runs
		Hub:      serve.NewHub(1 << 12),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sink := &reportSink{}
	coord.AddAlertSink(sink)
	coordAddr, err := coord.ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}

	mkWorker := func(i int, routerAddr string) *Worker {
		w, err := NewWorker(WorkerConfig{
			ID:          i,
			Workers:     workers,
			Router:      routerAddr,
			Coordinator: coordAddr.String(),
			System:      sysCfg,
			Vessels:     vessels,
			Areas:       areas,
			Ports:       ports,
			GridStart:   gridStart,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		return w
	}

	var wg sync.WaitGroup
	runWorker := func(w *Worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker failed: %v", err)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	// Healthy workers first; the laggard stays down until the healthy
	// side has already been forced past it.
	for i := 0; i < workers; i++ {
		if i != laggard {
			runWorker(mkWorker(i, addrs[i].String()))
		}
	}
	for _, f := range fixes {
		router.Dispatch(f)
	}
	router.Finish()

	deadline := time.Now().Add(30 * time.Second)
	for coord.Stats().ForcedMerges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no forced merge happened; stats: %+v", coord.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if state := coord.Health().State(); state != "degraded" {
		t.Errorf("cluster with an absent worker reports health %q, want degraded", state)
	}

	runWorker(mkWorker(laggard, proxyAddr.String()))

	select {
	case <-coord.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("cluster deadlocked waiting for the laggard; stats: %+v", coord.Stats())
	}

	stats := coord.Stats()
	if stats.ForcedMerges == 0 {
		t.Error("no forced merges recorded")
	}
	if stats.DropsByCause["late-after-forced-merge"] == 0 {
		t.Errorf("laggard's late slides were not ledgered: %+v", stats.DropsByCause)
	}
	if stats.SlidesMerged != len(sink.rendered()) {
		t.Errorf("merged %d slides but delivered %d reports", stats.SlidesMerged, sink.count())
	}
	if proxy.Stats().Stalls == 0 {
		t.Error("the fault proxy injected no stalls; the chaos schedule never ran")
	}
	if state := coord.Health().State(); state != "ok" {
		t.Errorf("cluster health did not recover after the laggard caught up: %q", state)
	}
}
