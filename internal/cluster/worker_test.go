package cluster

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// A worker restored from a checkpoint older than its slice feed's first
// traffic reports the gap through Health, exactly like a restored
// single-process driver.
func TestWorkerRestoreReportsReplayGap(t *testing.T) {
	sim, raw := testFleet(t, 20, 2)
	fixes := canonFixes(t, raw)
	vessels, areas, ports := core.AdaptWorld(sim)
	sysCfg := core.Config{
		Window:      stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: time.Hour},
	}

	// The checkpoint sits five slides before the feed's first fix.
	const gapSlides = 5
	ckptQ := fixes[0].Time.Truncate(testSlide).Add(-gapSlides * testSlide)
	dir := t.TempDir()
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// A worker's system runs no recognition; its checkpoint says so.
	seedCfg := sysCfg
	seedCfg.DisableRecognition = true
	seed := core.NewSystem(seedCfg, vessels, areas, ports)
	snap, err := seed.Snapshot()
	seed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Save(&checkpoint.State{Query: ckptQ, System: snap, Cursor: feed.Cursor{Sec: ckptQ.Unix()}, Slides: 3}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	router := NewRouter(RouterOptions{Workers: 1, RetainFixes: len(fixes) + 1, KeepaliveEvery: 250 * time.Millisecond})
	addrs, err := router.ListenSlices(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator end of the uplink only has to accept the frames.
	uplink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer uplink.Close()
	go func() {
		conn, err := uplink.Accept()
		if err == nil {
			io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()

	w, err := NewWorker(WorkerConfig{
		ID: 0, Workers: 1,
		Router:        addrs[0].String(),
		Coordinator:   uplink.Addr().String(),
		System:        sysCfg,
		Vessels:       vessels,
		Areas:         areas,
		Ports:         ports,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixes {
		router.Dispatch(f)
	}
	router.Finish()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker did not finish")
	}

	if got := w.System().Health().ReplayGapSlides; got < gapSlides-1 {
		t.Errorf("Health.ReplayGapSlides = %d, want ≥ %d", got, gapSlides-1)
	}
}
