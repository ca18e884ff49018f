package checkpoint

import (
	"context"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// TestHealthCountsEachEventOnceAcrossRewinds restores a checkpoint
// older than a live feed's horizon, then rewinds three times after
// recognizer panics, reconnecting the feed at each checkpoint's cursor,
// while other goroutines scrape Health throughout — with a lossless
// ingest stage (the cluster worker's) and a bounded one (serve's
// default). Every event must be counted once: the startup replay gap,
// one reconnect and one resume per rewind, the ingest path's drops as
// its own counters have them, and no loss for the faults the rewinds
// replayed.
func TestHealthCountsEachEventOnceAcrossRewinds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
	}{{"lossless", 0}, {"bounded", 8192}} {
		t.Run(tc.name, func(t *testing.T) { healthAcrossRewinds(t, tc.capacity) })
	}
}

func healthAcrossRewinds(t *testing.T, capacity int) {
	sim, fixes := testFleet(t, 100, 4)
	mgr := newTestManager(t, Options{})
	_ = checkpointingRun(t, sim, fixes, mgr, 2, 4, 2)
	st, err := mgr.RestoreNewest()
	if err != nil || st == nil {
		t.Fatalf("RestoreNewest: (%v, %v)", st, err)
	}
	// The feed lost everything older than checkpoint + 3 slides.
	horizon := st.Query.Add(3 * testSlide)
	var tail []ais.Fix
	for _, f := range fixes {
		if !f.Time.Before(horizon) {
			tail = append(tail, f)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &feed.Server{Source: feed.NewReplay(tail), HandshakeWait: feed.DefaultHandshakeWait}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh) }()
	addr := (<-addrCh).String()

	sys := newPipeline(sim, 2)
	defer sys.Close()
	run, err := Restore(RunConfig{System: sys, Checkpoints: mgr, Every: 2, Slide: testSlide})
	if err != nil || run.Restored() == nil {
		t.Fatalf("Restore: %v (restored %v)", err, run.Restored() != nil)
	}

	// Scrape Health from the first registration on.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for range 2 {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sys.Health().String()
			}
		}()
	}

	client, err := feed.DialReconnectingFrom(addr, feed.DefaultRetryPolicy(), run.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	stage := run.Ingest(client, client, capacity)

	// The recognizer panics the first time it steps on each of three
	// slides, each past a checkpoint the run itself saved.
	faults := map[int64]*atomic.Bool{}
	for k := 4; k <= 12; k += 4 {
		faults[horizon.Add(time.Duration(k)*testSlide).Truncate(testSlide).UnixNano()] = new(atomic.Bool)
	}
	var cur atomic.Int64
	sys.SetFreshObserver(func(q time.Time, _ []tracker.CriticalPoint) { cur.Store(q.UnixNano()) })
	core.SetRecognizerFaultHook(func() {
		if f := faults[cur.Load()]; f != nil && f.CompareAndSwap(false, true) {
			panic("injected recognizer fault")
		}
	})
	defer core.SetRecognizerFaultHook(nil)

	var firstTraffic time.Time
	res, err := run.Slides(context.Background(), Loop{
		Report: func(b stream.Batch, _ core.SlideReport) error {
			if firstTraffic.IsZero() && len(b.Fixes) > 0 {
				firstTraffic = b.Query
			}
			return nil
		},
	})
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for q, f := range faults {
		if !f.Load() {
			t.Fatalf("the fault at %s never fired", time.Unix(0, q).UTC())
		}
	}

	h := sys.Health()
	ns := client.NetStats()
	if h.Restores != 3 || h.PanicsRecovered != 3 || h.State() != "ok" {
		t.Errorf("health %s: want three rewinds, three panics, all recovered", h)
	}
	if ns.Reconnects != 3 || h.Reconnects != 3 {
		t.Errorf("reconnects: client %d, health %d, want 3 (one per rewind)", ns.Reconnects, h.Reconnects)
	}
	if ns.Resumes != 4 || h.Resumes != 4 {
		t.Errorf("resumes: client %d, health %d, want 4 (the restore and one per rewind)", ns.Resumes, h.Resumes)
	}
	gap := ReplayGapSlides(st.Query, firstTraffic, testSlide)
	if gap < 2 || h.ReplayGapSlides != gap {
		t.Errorf("ReplayGapSlides = %d, want the startup gap %d (≥ 2) once", h.ReplayGapSlides, gap)
	}
	if want := core.LiveHealthSource(client, stage)().DropsByCause; !reflect.DeepEqual(h.DropsByCause, want) && len(h.DropsByCause)+len(want) > 0 {
		t.Errorf("DropsByCause = %v, want the ingest path's own %v and no fault losses", h.DropsByCause, want)
	}
	if res.Slides == 0 {
		t.Error("no slides ran")
	}
}
