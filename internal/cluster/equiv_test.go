package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// The cluster's headline contract: the same stream pushed through one
// process and through a router + N workers + coordinator must produce
// byte-identical observable output — per-slide critical point counts,
// trips, alerts, and the end-of-run archival digest — including when
// one worker is killed mid-run and restored from its checkpoint.

const testSlide = 10 * time.Minute

// testFleet builds a deterministic world and its fix stream.
func testFleet(t *testing.T, vessels, hours int) (*fleetsim.Simulator, []ais.Fix) {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = time.Duration(hours) * time.Hour
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	return sim, fixes
}

// canonFixes round-trips the fixes through a feed server's NMEA wire,
// so the reference run sees exactly the coordinate quantisation the
// cluster's workers receive. The encoding is idempotent: a router slice
// re-serving a canonical fix reproduces it bit-for-bit
// (TestRouterWireIsIdempotent).
func canonFixes(t *testing.T, fixes []ais.Fix) []ais.Fix {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("canonicalizing fixes: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &feed.Server{Source: feed.NewReplay(fixes), HandshakeWait: feed.DefaultHandshakeWait}
	go srv.Serve(ctx, ln)
	c, err := feed.DialReconnecting(ln.Addr().String(), feed.DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("canonicalizing fixes: %v", err)
	}
	defer c.Close()
	out, err := stream.Collect(c)
	if err != nil {
		t.Fatalf("re-reading canonical fixes: %v", err)
	}
	if len(out) != len(fixes) {
		t.Fatalf("canonical round-trip lost fixes: %d in, %d out", len(fixes), len(out))
	}
	return out
}

// orderAlerts is a full total order: CompareAlerts (time, CE, area)
// broken by vessel pair, so digests are insensitive to the emission
// order of same-instant alerts from different vessels.
func orderAlerts(a, b maritime.Alert) int {
	if d := maritime.CompareAlerts(a, b); d != 0 {
		return d
	}
	if d := cmp.Compare(a.Vessel, b.Vessel); d != 0 {
		return d
	}
	return cmp.Compare(a.Vessel2, b.Vessel2)
}

// renderSlide canonicalizes one slide's observable output.
func renderSlide(rep core.SlideReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%s fixes=%d cps=%d trips=%d alerts=[",
		rep.Query.UTC().Format(time.RFC3339), rep.FixesIn, rep.CriticalPoints, rep.TripsCompleted)
	alerts := slices.Clone(rep.Alerts)
	slices.SortFunc(alerts, orderAlerts)
	for i, a := range alerts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%s@%s@%d", a.CE, a.AreaID, a.Time.UTC().Format(time.RFC3339), a.Vessel)
		if a.Vessel2 != 0 {
			fmt.Fprintf(&b, "+%d", a.Vessel2)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// renderFinal canonicalizes a single-process run's archival digest.
func renderFinal(sys *core.System) string {
	t4 := sys.Store().Table4Stats()
	st := sys.Tracker().Stats()
	return fmt.Sprintf("trips=%d trajPoints=%d staged=%d fixes=%d critical=%d",
		t4.Trips, t4.PointsInTrajectories, t4.PointsInStaging, st.FixesIn, st.Critical)
}

// renderClusterFinal mirrors renderFinal over the summed worker digest.
func renderClusterFinal(f ClusterFinal) string {
	return fmt.Sprintf("trips=%d trajPoints=%d staged=%d fixes=%d critical=%d",
		f.Final.Trips, f.Final.TrajPoints, f.Final.Staged, f.Final.FixesIn, f.Final.Critical)
}

// referenceRun processes the whole stream in one process, recognition
// on — the ground truth the cluster must reproduce.
func referenceRun(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix) ([]string, string) {
	t.Helper()
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: time.Hour},
		TrackerShards: 3,
	}, vessels, areas, ports)
	defer sys.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
	var out []string
	var last time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		rep := sys.ProcessBatch(b)
		out = append(out, renderSlide(rep))
		last = rep.Query
	}
	sys.Drain(last)
	return out, renderFinal(sys)
}

// reportSink collects merged slide reports in merge order.
type reportSink struct {
	mu   sync.Mutex
	reps []core.SlideReport
}

func (s *reportSink) Consume(rep core.SlideReport) {
	s.mu.Lock()
	s.reps = append(s.reps, rep)
	s.mu.Unlock()
}

func (s *reportSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reps)
}

func (s *reportSink) rendered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.reps))
	for i, r := range s.reps {
		out[i] = renderSlide(r)
	}
	return out
}

// clusterOpts parameterizes one cluster run.
type clusterOpts struct {
	workers   int
	queueCap  int // 0: large (1024) so equivalence runs never force a merge
	hub       *serve.Hub
	analytics bool // enable the coordinator's pairwise analytics tier

	ckptDirs  []string // per-worker; enables checkpointing when set
	ckptEvery int
	manifests *checkpoint.Manager
	restore   *checkpoint.State // coordinator manifest restore
	pinSeqs   []uint64          // per-worker pinned checkpoint generations

	// killSlide > 0: pause dispatch after slide killSlide is merged,
	// SIGKILL worker killWorker (cancel its context), restart it from
	// its newest checkpoint, then stream the rest.
	killSlide  int
	killWorker int
	// stopSlide > 0: pause dispatch after slide stopSlide is merged and
	// tear the whole cluster down — phase one of a manifest restore.
	stopSlide int
}

type clusterResult struct {
	slides []string
	final  ClusterFinal
	stats  CoordinatorStats
	health core.Health
	router *Router
	coord  *Coordinator
}

// runCluster drives one full cluster run: router + coordinator + N
// in-process workers over loopback TCP.
func runCluster(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix, o clusterOpts) clusterResult {
	t.Helper()
	vessels, areas, ports := core.AdaptWorld(sim)
	gridStart := fixes[0].Time.Truncate(testSlide)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	router := NewRouter(RouterOptions{
		Workers:        o.workers,
		RetainFixes:    len(fixes) + 1, // tests replay killed workers from the full ring
		KeepaliveEvery: 250 * time.Millisecond,
	})
	addrs, err := router.ListenSlices(ctx, nil)
	if err != nil {
		t.Fatalf("router listen: %v", err)
	}
	queueCap := o.queueCap
	if queueCap == 0 {
		queueCap = 1024
	}
	sysCfg := core.Config{
		Window:      stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: time.Hour},
	}
	coordCfg := CoordinatorConfig{
		Workers:   o.workers,
		System:    sysCfg,
		Vessels:   vessels,
		Areas:     areas,
		Ports:     ports,
		QueueCap:  queueCap,
		Hub:       o.hub,
		Manifests: o.manifests,
		Restore:   o.restore,
		Logf:      t.Logf,
	}
	if o.analytics {
		coordCfg.System.Analytics = &analytics.Config{EnableCollision: true}
	}
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sink := &reportSink{}
	coord.AddAlertSink(sink)
	coordAddr, err := coord.ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}

	mkWorker := func(i int) *Worker {
		cfg := WorkerConfig{
			ID:          i,
			Workers:     o.workers,
			Router:      addrs[i].String(),
			Coordinator: coordAddr.String(),
			System:      sysCfg,
			Vessels:     vessels,
			Areas:       areas,
			Ports:       ports,
			GridStart:   gridStart,
		}
		if len(o.ckptDirs) == o.workers && o.ckptDirs[i] != "" {
			cfg.CheckpointDir = o.ckptDirs[i]
			cfg.CheckpointEvery = o.ckptEvery
		}
		if len(o.pinSeqs) == o.workers {
			cfg.PinSeq = o.pinSeqs[i]
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		return w
	}

	var wg sync.WaitGroup
	errCh := make(chan error, o.workers+2)
	start := func(w *Worker, wctx context.Context, exited chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if exited != nil {
				defer close(exited)
			}
			if err := w.Run(wctx); err != nil && wctx.Err() == nil {
				errCh <- err
			}
		}()
	}

	victimCtx, victimCancel := context.WithCancel(ctx)
	defer victimCancel()
	victimExited := make(chan struct{})
	for i := 0; i < o.workers; i++ {
		w := mkWorker(i)
		if o.killSlide > 0 && i == o.killWorker {
			start(w, victimCtx, victimExited)
		} else {
			start(w, ctx, nil)
		}
	}

	waitMerged := func(n int) {
		deadline := time.Now().Add(60 * time.Second)
		for sink.count() < n {
			select {
			case err := <-errCh:
				t.Fatalf("worker failed: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d merged slides (have %d)", n, sink.count())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Dispatch; when a kill/stop point is set, pause once every slide up
	// to it has been merged. The prefix extends half a slide past the
	// pause query so every worker's batcher sees the trigger fix that
	// flushes that slide.
	split := len(fixes)
	if pause := max(o.killSlide, o.stopSlide); pause > 0 {
		pauseQ := gridStart.Add(time.Duration(pause) * testSlide).Add(testSlide / 2)
		for i, f := range fixes {
			if f.Time.After(pauseQ) {
				split = i
				break
			}
		}
	}
	for _, f := range fixes[:split] {
		router.Dispatch(f)
	}

	if o.stopSlide > 0 {
		waitMerged(o.stopSlide)
		cancel()
		wg.Wait()
		return clusterResult{
			slides: sink.rendered(),
			final:  coord.Final(),
			stats:  coord.Stats(),
			health: coord.Health(),
			router: router,
			coord:  coord,
		}
	}

	if o.killSlide > 0 {
		waitMerged(o.killSlide)
		victimCancel()
		select {
		case <-victimExited:
		case <-time.After(15 * time.Second):
			t.Fatal("killed worker did not exit")
		}
		w2 := mkWorker(o.killWorker)
		if w2.run.Restored() == nil {
			t.Fatalf("restarted worker %d found no checkpoint to restore", o.killWorker)
		}
		start(w2, ctx, nil)
	}

	for _, f := range fixes[split:] {
		router.Dispatch(f)
	}
	router.Finish()

	select {
	case <-coord.Done():
	case err := <-errCh:
		t.Fatalf("worker failed: %v", err)
	case <-time.After(120 * time.Second):
		t.Fatalf("cluster did not finish; merged %d slides", sink.count())
	}
	res := clusterResult{
		slides: sink.rendered(),
		final:  coord.Final(),
		stats:  coord.Stats(),
		health: coord.Health(),
		router: router,
		coord:  coord,
	}
	cancel()
	wg.Wait()
	return res
}

// compareSlides asserts two rendered slide sequences are identical.
func compareSlides(t *testing.T, label string, want, got []string) {
	t.Helper()
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: slide %d diverged:\n  want %s\n  got  %s", label, i+1, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: slide count diverged: want %d, got %d", label, len(want), len(got))
	}
}

// drainEnvelopes collects every queued hub envelope.
func drainEnvelopes(sub *serve.Subscriber) []serve.Envelope {
	var out []serve.Envelope
	for {
		env, ok, timedOut := sub.NextTimeout(200 * time.Millisecond)
		if timedOut || !ok {
			return out
		}
		out = append(out, env)
	}
}

// TestClusterMatchesSingleProcess is the golden equivalence check: one
// process, a 1-worker cluster and a 3-worker cluster must all produce
// the same per-slide output and final archival digest.
func TestClusterMatchesSingleProcess(t *testing.T) {
	sim, raw := testFleet(t, 120, 4)
	fixes := canonFixes(t, raw)

	refSlides, refFinal := referenceRun(t, sim, fixes)
	for _, workers := range []int{1, 3} {
		res := runCluster(t, sim, fixes, clusterOpts{workers: workers})
		label := fmt.Sprintf("cluster(%d)", workers)
		compareSlides(t, label, refSlides, res.slides)
		if got := renderClusterFinal(res.final); got != refFinal {
			t.Errorf("%s final digest diverged:\n  want %s\n  got  %s", label, refFinal, got)
		}
		if res.stats.ForcedMerges != 0 {
			t.Errorf("%s forced %d merges on a healthy run", label, res.stats.ForcedMerges)
		}
		if res.health.State() != "ok" {
			t.Errorf("%s finished with health %q", label, res.health.State())
		}
		if disp := res.router.Stats().Dispatched; disp != len(fixes) {
			t.Errorf("%s router dispatched %d of %d fixes", label, disp, len(fixes))
		}
	}
}

// TestClusterKillWorkerRestore kills one worker mid-run, restores it
// from its newest checkpoint, and requires the merged output to stay
// byte-identical — with the re-sent slides deduplicated, the restart
// counted, and the SSE hub delivering every alert exactly once.
func TestClusterKillWorkerRestore(t *testing.T) {
	sim, raw := testFleet(t, 120, 4)
	fixes := canonFixes(t, raw)
	refSlides, refFinal := referenceRun(t, sim, fixes)

	cleanHub := serve.NewHub(1 << 15)
	cleanSub := cleanHub.Subscribe(serve.Filter{}, 1<<15)
	clean := runCluster(t, sim, fixes, clusterOpts{workers: 3, hub: cleanHub})
	compareSlides(t, "clean cluster(3)", refSlides, clean.slides)

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	killHub := serve.NewHub(1 << 15)
	killSub := killHub.Subscribe(serve.Filter{}, 1<<15)
	killed := runCluster(t, sim, fixes, clusterOpts{
		workers:    3,
		hub:        killHub,
		ckptDirs:   dirs,
		ckptEvery:  4,
		killSlide:  6,
		killWorker: 1,
	})

	compareSlides(t, "kill-and-restore cluster(3)", refSlides, killed.slides)
	if got := renderClusterFinal(killed.final); got != refFinal {
		t.Errorf("kill-and-restore final digest diverged:\n  want %s\n  got  %s", refFinal, got)
	}
	if killed.stats.DropsByCause["duplicate"] == 0 {
		t.Error("restored worker re-sent no slides: the kill happened after EOS or dedupe never ran")
	}
	if killed.health.Restores == 0 {
		t.Error("coordinator did not count the worker restart")
	}

	// Exactly-once SSE: both runs must deliver the same envelopes, with
	// contiguous hub sequence numbers — no duplicates, no gaps.
	cleanEnvs := drainEnvelopes(cleanSub)
	killEnvs := drainEnvelopes(killSub)
	if len(cleanEnvs) == 0 {
		t.Fatal("clean run published no alerts; the SSE comparison is vacuous")
	}
	if len(killEnvs) != len(cleanEnvs) {
		t.Fatalf("SSE delivery count diverged: clean %d, kill-and-restore %d", len(cleanEnvs), len(killEnvs))
	}
	for i := range cleanEnvs {
		c, k := cleanEnvs[i], killEnvs[i]
		if c.Seq != k.Seq || !c.Slide.Equal(k.Slide) || c.Alert != k.Alert {
			t.Fatalf("SSE envelope %d diverged: clean seq=%d %v, kill seq=%d %v",
				i, c.Seq, c.Alert, k.Seq, k.Alert)
		}
		if i > 0 && k.Seq != killEnvs[i-1].Seq+1 {
			t.Fatalf("SSE sequence gap after %d: next %d", killEnvs[i-1].Seq, k.Seq)
		}
	}
}

// TestClusterManifestRestore tears the whole cluster down mid-run and
// restores every tier from the newest cluster manifest: workers pinned
// to the manifest's checkpoint generation, the coordinator's system
// and hub state reloaded, and the combined output identical to an
// uninterrupted run.
func TestClusterManifestRestore(t *testing.T) {
	sim, raw := testFleet(t, 120, 4)
	fixes := canonFixes(t, raw)
	refSlides, refFinal := referenceRun(t, sim, fixes)

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	manifestDir := t.TempDir()
	store, err := checkpoint.NewManifestManager(checkpoint.Options{Dir: manifestDir})
	if err != nil {
		t.Fatalf("manifest store: %v", err)
	}
	hub1 := serve.NewHub(1 << 15)
	phase1 := runCluster(t, sim, fixes, clusterOpts{
		workers:   3,
		hub:       hub1,
		ckptDirs:  dirs,
		ckptEvery: 4,
		manifests: store,
		stopSlide: 6,
	})
	if phase1.stats.Manifests == 0 {
		t.Fatal("no manifest was bound before the shutdown")
	}

	m, err := RestoreCluster(store, dirs)
	if err != nil {
		t.Fatalf("RestoreCluster: %v", err)
	}
	if m == nil {
		t.Fatal("RestoreCluster found nothing to restore")
	}
	if m.Slides == 0 || m.Slides > len(phase1.slides) {
		t.Fatalf("manifest covers %d slides, phase 1 merged %d", m.Slides, len(phase1.slides))
	}

	hub2 := serve.NewHub(1 << 15)
	sub2 := hub2.Subscribe(serve.Filter{}, 1<<15)
	phase2 := runCluster(t, sim, fixes, clusterOpts{
		workers:   3,
		hub:       hub2,
		ckptDirs:  dirs,
		ckptEvery: 4,
		manifests: store,
		restore:   m,
		pinSeqs:   m.WorkerSeqs,
	})

	combined := append(slices.Clone(refSlides[:m.Slides]), phase2.slides...)
	compareSlides(t, "manifest restore", refSlides, combined)
	if got := renderClusterFinal(phase2.final); got != refFinal {
		t.Errorf("manifest-restored final digest diverged:\n  want %s\n  got  %s", refFinal, got)
	}

	// The restored hub continues the sequence from the manifest's
	// snapshot: the first post-restore delivery follows it with no gap.
	if m.Hub == nil {
		t.Fatal("manifest carried no hub snapshot")
	}
	envs := drainEnvelopes(sub2)
	for i, e := range envs {
		want := m.Hub.Seq + uint64(i+1)
		if e.Seq != want {
			t.Fatalf("restored hub sequence diverged at %d: want %d, got %d", i, want, e.Seq)
		}
	}
}
