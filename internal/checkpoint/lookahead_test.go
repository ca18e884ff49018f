package checkpoint

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// The look-ahead equivalence harness: Run.Slides tracks slide k+1 on
// the shard pool while slide k is recognized and published whenever the
// ingest stage already holds k+1. Over a replay read from memory, which
// keeps the ingest stage ahead of the pipeline, nearly every slide is
// tracked ahead, and everything the pipeline emits — alerts, critical
// points, trips and the checkpoint payload at every cadence cut — must
// be byte-identical to the serial composition (ProcessBatch, RunAll) on
// the same batches.

// laEvery is the look-ahead harness's checkpoint cadence in slides.
const laEvery = 3

// laConfig is the pipeline the look-ahead harness runs: pairwise
// analytics on, so every consumer of the tracked slide is exercised.
func laConfig(shards int, selfHeal bool) core.Config {
	return core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: time.Hour},
		TrackerShards: shards,
		SelfHeal:      selfHeal,
		Analytics:     &analytics.Config{EnableCollision: true},
	}
}

// laTrace is everything one run emitted, rendered for byte comparison.
type laTrace struct {
	slides []string          // per slide: renderSlide of its report
	fresh  []string          // per slide: its critical points
	ckpts  map[string]string // checkpoint payload by query time
	final  string            // archival state and every trip, after Drain
	at     map[time.Time]int // fresh's index by query time
}

// laRecorder wires a system's observers into a trace. A slide a rewind
// processes again replaces what its earlier processing tapped.
func laRecorder(sys *core.System) *laTrace {
	tr := &laTrace{ckpts: map[string]string{}, at: map[time.Time]int{}}
	sys.SetFreshObserver(func(q time.Time, fresh []tracker.CriticalPoint) {
		var b strings.Builder
		fmt.Fprintf(&b, "Q=%s", q.UTC().Format(time.RFC3339))
		for _, cp := range fresh {
			fmt.Fprintf(&b, " %+v", cp)
		}
		if i, ok := tr.at[q]; ok {
			tr.fresh[i] = b.String()
			return
		}
		tr.at[q] = len(tr.fresh)
		tr.fresh = append(tr.fresh, b.String())
	})
	return tr
}

// payload renders a checkpoint's system state canonically: JSON sorts
// map keys, where gob encodes them in iteration order — which is also
// why the store's own gob frame is decoded and re-rendered.
func payload(t *testing.T, snap core.Snapshot) string {
	t.Helper()
	frame, _, err := durable.ReadFrame(bytes.NewReader(snap.Store), "MODSNAP", 1)
	if err != nil {
		t.Fatal(err)
	}
	var store struct {
		Staging map[uint32][]tracker.CriticalPoint
		Origin  map[uint32]string
		Trips   []mod.Trip
	}
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&store); err != nil {
		t.Fatal(err)
	}
	snap.Store = nil
	raw, err := json.Marshal(struct {
		System core.Snapshot
		Store  any
	}{snap, store})
	if err != nil {
		t.Fatalf("encoding snapshot: %v", err)
	}
	return string(raw)
}

// finish renders a drained system's archival state.
func (tr *laTrace) finish(sys *core.System) {
	var b strings.Builder
	b.WriteString(renderFinal(sys))
	for _, trip := range sys.Store().Trips() {
		fmt.Fprintf(&b, "\n%d %s→%s %s..%s %d", trip.MMSI, trip.Origin, trip.Dest,
			trip.Start.UTC().Format(time.RFC3339), trip.End.UTC().Format(time.RFC3339), len(trip.Points))
	}
	tr.final = b.String()
}

// serialRun is the reference: RunAll over the batches, snapshotting
// after every slide the loop would checkpoint (the grid-absolute
// cadence and the last slide).
func serialRun(t *testing.T, sys *core.System, fixes []ais.Fix) *laTrace {
	t.Helper()
	return serialRunBatches(t, sys, batchesOf(stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)))
}

func serialRunBatches(t *testing.T, sys *core.System, batches []stream.Batch) *laTrace {
	t.Helper()
	tr := laRecorder(sys)
	k := 0
	sys.OnSlideEnd(func(rep core.SlideReport) {
		k++
		if (rep.Query.UnixNano()/int64(testSlide))%laEvery != 0 && k != len(batches) {
			return
		}
		// A quarantined target fails the snapshot, as it fails the
		// loop's checkpoint.
		if snap, err := sys.Snapshot(); err == nil {
			tr.ckpts[rep.Query.UTC().Format(time.RFC3339)] = payload(t, snap)
		}
	})
	for _, rep := range sys.RunAll(&sliceBatches{batches: batches}) {
		tr.slides = append(tr.slides, renderSlide(rep))
	}
	tr.finish(sys)
	return tr
}

// batchesOf collects a batcher's slides.
func batchesOf(batcher *stream.Batcher) []stream.Batch {
	var out []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

type sliceBatches struct {
	batches []stream.Batch
	i       int
}

func (s *sliceBatches) Next() (stream.Batch, bool) {
	if s.i == len(s.batches) {
		return stream.Batch{}, false
	}
	s.i++
	return s.batches[s.i-1], true
}

// loopRun drives Run.Slides over the fixes, checkpointing into dir on
// the cadence (pinned restores from seq when nonzero), and returns the
// trace and how many slides were tracked ahead.
func loopRun(t *testing.T, sys *core.System, fixes []ais.Fix, dir string, pin uint64, pipe Pipeline) (*laTrace, *Run, float64) {
	t.Helper()
	tr := laRecorder(sys)
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)
	mgr, err := NewManager(Options{Dir: dir, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Restore(RunConfig{System: sys, Checkpoints: mgr, PinSeq: pin, Every: laEvery, Slide: testSlide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(fixes), nil, 0)
	res, err := run.Slides(context.Background(), Loop{
		Pipeline: pipe,
		Report: func(_ stream.Batch, rep core.SlideReport) error {
			tr.slides = append(tr.slides, renderSlide(rep))
			return nil
		},
		Capture: func(st *State) (err error) {
			st.System, err = sys.Snapshot()
			if err == nil {
				tr.ckpts[st.Query.UTC().Format(time.RFC3339)] = payload(t, st.System)
			}
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Drain(res.Last)
	tr.finish(sys)
	return tr, run, metricValue(t, reg, "maritime_pipeline_lookahead_slides_total")
}

// metricValue reads one unlabeled sample off the registry.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no sample %s", name)
	return 0
}

// compareTraces asserts two runs emitted the same bytes, slide by slide
// and at every checkpoint got took.
func compareTraces(t *testing.T, want, got *laTrace) {
	t.Helper()
	if len(got.slides) != len(want.slides) || len(got.fresh) != len(want.fresh) {
		t.Fatalf("ran %d slides (%d fresh taps), want %d (%d)", len(got.slides), len(got.fresh), len(want.slides), len(want.fresh))
	}
	for i := range want.slides {
		if got.slides[i] != want.slides[i] {
			t.Fatalf("slide %d differs:\n  want %s\n  got  %s", i, want.slides[i], got.slides[i])
		}
		if got.fresh[i] != want.fresh[i] {
			t.Fatalf("slide %d critical points differ:\n  want %.300s\n  got  %.300s", i, want.fresh[i], got.fresh[i])
		}
	}
	for q, p := range got.ckpts {
		if want.ckpts[q] != p {
			t.Errorf("checkpoint at %s differs from the serial run's state after that slide", q)
		}
	}
	if got.final != want.final {
		t.Errorf("archival state differs:\n  want %.500s\n  got  %.500s", want.final, got.final)
	}
}

// suffix is the part of a reference trace from slide k on.
func (tr *laTrace) suffix(k int) *laTrace {
	return &laTrace{slides: tr.slides[k:], fresh: tr.fresh[k:], ckpts: tr.ckpts, final: tr.final}
}

func TestLookAheadMatchesSerial(t *testing.T) {
	sim, fixes := testFleet(t, 100, 4)
	vessels, areas, ports := core.AdaptWorld(sim)
	for _, shards := range []int{1, 2, 4} {
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/selfheal=%v", shards, heal), func(t *testing.T) {
				ref := core.NewSystem(laConfig(shards, heal), vessels, areas, ports)
				defer ref.Close()
				want := serialRun(t, ref, fixes)

				sys := core.NewSystem(laConfig(shards, heal), vessels, areas, ports)
				defer sys.Close()
				dir := t.TempDir()
				got, _, ahead := loopRun(t, sys, fixes, dir, 0, nil)
				compareTraces(t, want, got)
				if len(got.ckpts) < 3 {
					t.Errorf("only %d checkpoints compared", len(got.ckpts))
				}
				if ahead == 0 {
					t.Errorf("no slide was tracked ahead: the harness did not exercise the look-ahead")
				}
				t.Logf("%d of %d slides tracked ahead", int(ahead), len(got.slides))

				// Restore a mid-stream checkpoint into a system of another
				// shard count and run the rest of the stream ahead again,
				// against the same restore run serially. (A restored
				// system's snapshots differ from the uninterrupted run's in
				// counters a restore resets, so the serial restore is the
				// reference for its checkpoints; the slides, critical points
				// and trips must also match the uninterrupted run's.)
				mgr, err := NewManager(Options{Dir: dir, Keep: 1000})
				if err != nil {
					t.Fatal(err)
				}
				mid := mgr.LastSeq() / 2
				st, err := mgr.LoadAt(mid)
				if err != nil {
					t.Fatal(err)
				}
				restoredRef := core.NewSystem(laConfig(5-shards, heal), vessels, areas, ports)
				defer restoredRef.Close()
				if err := restoredRef.RestoreSnapshot(st.System); err != nil {
					t.Fatal(err)
				}
				resumed := feed.NewResumeFilter(stream.NewSliceSource(fixes), st.Cursor)
				wantRest := serialRunBatches(t, restoredRef, batchesOf(stream.NewBatcherFrom(resumed, testSlide, st.Query)))
				restored := core.NewSystem(laConfig(5-shards, heal), vessels, areas, ports)
				defer restored.Close()
				rest, run, _ := loopRun(t, restored, fixes, dir, mid, nil)
				if run.Restored() == nil {
					t.Fatal("the restore run started cold")
				}
				compareTraces(t, wantRest, rest)
				rest.ckpts = nil
				compareTraces(t, want.suffix(st.Slides), rest)
			})
		}
	}
}

// TestLookAheadFaultsMatchSerial injects faults while a slide is in
// flight on the tracker and requires the look-ahead run, which rewinds
// to its newest checkpoint and replays after each, to emit exactly what
// the fault-free serial run does — with no alert more often.
func TestLookAheadFaultsMatchSerial(t *testing.T) {
	sim, fixes := testFleet(t, 100, 4)
	vessels, areas, ports := core.AdaptWorld(sim)
	clean := core.NewSystem(laConfig(2, true), vessels, areas, ports)
	defer clean.Close()
	reference := serialRun(t, clean, fixes)

	cases := []struct {
		name string
		// arm installs the fault on a fresh system; the returned func
		// releases anything it blocked.
		arm func(sys *core.System) func()
		cfg func(*core.Config)
		// fired reports whether the fault was hit and handled.
		fired func(h core.Health) bool
	}{
		{
			// A tracker shard panics the first time it tracks slide 5,
			// most likely ahead, beside slide 4.
			name: "shard-panic",
			arm: func(sys *core.System) func() {
				var once atomic.Bool
				sys.Tracker().SetFaultHook(func(shard int, q time.Time) {
					if shard == 1 && q.Equal(fixes[0].Time.Truncate(testSlide).Add(5*testSlide)) && once.CompareAndSwap(false, true) {
						panic("injected shard fault")
					}
				})
				return func() {}
			},
			fired: func(h core.Health) bool { return h.PanicsRecovered == 1 && h.Restores == 1 },
		},
		{
			// The recognizer wedges on its 6th step: the watchdog
			// quarantines it and the run rewinds.
			name: "recognizer-stall",
			cfg:  func(c *core.Config) { c.WatchdogTimeout = time.Second },
			arm: func(sys *core.System) func() {
				release := make(chan struct{})
				var steps atomic.Int64
				core.SetRecognizerFaultHook(func() {
					if steps.Add(1) == 6 {
						<-release
					}
				})
				return func() {
					core.SetRecognizerFaultHook(nil)
					close(release)
				}
			},
			fired: func(h core.Health) bool { return h.WatchdogTrips == 1 && h.Restores == 1 },
		},
		{
			// The recognizer panics on its 8th step, at the end of which
			// the next slide is in flight on the tracker: the rewind that
			// starts from the slide's end discards it with the rest.
			name: "heal-from-slide-end",
			arm: func(sys *core.System) func() {
				var steps atomic.Int64
				core.SetRecognizerFaultHook(func() {
					if steps.Add(1) == 8 {
						panic("injected recognizer fault")
					}
				})
				return func() { core.SetRecognizerFaultHook(nil) }
			},
			fired: func(h core.Health) bool { return h.PanicsRecovered == 1 && h.Restores == 1 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := laConfig(2, true)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			sys := core.NewSystem(cfg, vessels, areas, ports)
			defer sys.Close()
			release := tc.arm(sys)
			got, _, ahead := loopRun(t, sys, fixes, t.TempDir(), 0, nil)
			release()
			got.ckpts = nil // a restore resets counters the snapshots carry
			compareTraces(t, reference, got)
			if ahead == 0 {
				t.Error("no slide was tracked ahead")
			}
			h := sys.Health()
			if !tc.fired(h) {
				t.Errorf("the fault did not fire and rewind as intended: %s", h)
			}
			if h.State() != "ok" {
				t.Errorf("ended %s", h)
			}
			seen := alertCounts(reference.slides)
			for key, n := range alertCounts(got.slides) {
				if n > seen[key] {
					t.Errorf("alert %s emitted %d times, the fault-free run emits it %d", key, n, seen[key])
				}
			}
		})
	}
}

// alertCounts counts every alert in rendered slides.
func alertCounts(slides []string) map[string]int {
	out := map[string]int{}
	for _, s := range slides {
		_, list, _ := strings.Cut(s, "alerts=[")
		for _, a := range strings.Fields(strings.TrimSuffix(list, "]")) {
			out[a]++
		}
	}
	return out
}

// TestLookAheadGatewayVesselReads reads /vessels and /vessels/{mmsi}
// while a closed-loop replay slides through the gateway, so under the
// race detector every read that could touch a shard a pool worker is
// advancing shows up; the output must still be the serial run's.
func TestLookAheadGatewayVesselReads(t *testing.T) {
	sim, fixes := testFleet(t, 100, 4)
	vessels, areas, ports := core.AdaptWorld(sim)
	ref := core.NewSystem(laConfig(2, true), vessels, areas, ports)
	defer ref.Close()
	want := serialRun(t, ref, fixes)

	sys := core.NewSystem(laConfig(2, true), vessels, areas, ports)
	defer sys.Close()
	gw := serve.New(sys, serve.Options{})
	h := gw.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for _, path := range []string{"/vessels", fmt.Sprintf("/vessels/%d", fixes[0].MMSI)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("GET %s: %d", path, rec.Code)
					return
				}
				reads.Add(1)
			}
		}()
	}
	got, _, ahead := loopRun(t, sys, fixes, t.TempDir(), 0, gw)
	close(stop)
	wg.Wait()
	compareTraces(t, want, got)
	if ahead == 0 {
		t.Error("no slide was tracked ahead")
	}
	t.Logf("%d reads beside %d slides, %d tracked ahead", reads.Load(), len(got.slides), int(ahead))
}

// TestLookAheadWallWithinElapsed holds the per-slide wall time to the
// slide's own time: tracked ahead, a slide's tracking overlaps the
// previous slide, and counting it in both would add up to more than the
// run took — and feed the degradation ladder load that is not there.
func TestLookAheadWallWithinElapsed(t *testing.T) {
	sim, fixes := testFleet(t, 100, 4)
	vessels, areas, ports := core.AdaptWorld(sim)
	cfg := laConfig(2, true)
	// cmd/serve's default ladder: a slide votes to degrade above 80 % of
	// the slide period.
	cfg.Degrade = &core.DegradeSpec{SlideHigh: testSlide * 8 / 10}
	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)
	run, err := Restore(RunConfig{System: sys, Slide: testSlide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(fixes), nil, 0)
	var wall time.Duration
	start := time.Now()
	res, err := run.Slides(context.Background(), Loop{
		Report: func(_ stream.Batch, rep core.SlideReport) error {
			wall += rep.Timings.Wall
			return nil
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	ahead := metricValue(t, reg, "maritime_pipeline_lookahead_slides_total")
	if ahead == 0 {
		t.Fatal("no slide was tracked ahead")
	}
	if wall > elapsed {
		t.Errorf("slides' wall times add up to %s, more than the %s the run took", wall, elapsed)
	}
	if n := metricValue(t, reg, "maritime_degradation_transitions_total"); n != 0 {
		t.Errorf("the degradation ladder moved %v times on a replay the pipeline keeps up with", n)
	}
	if lvl := sys.DegradationLevel(); lvl != core.DegradeNone {
		t.Errorf("ended at degradation level %d", lvl)
	}
	t.Logf("%d slides (%d ahead): wall %s of %s elapsed", res.Slides, int(ahead), wall, elapsed)
}

// TestLookAheadNeverPastACheckpoint: a slide the cadence checkpoints is
// processed with nothing tracked past it, so its snapshot succeeds.
func TestLookAheadNeverPastACheckpoint(t *testing.T) {
	sim, fixes := testFleet(t, 100, 4)
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(laConfig(2, false), vessels, areas, ports)
	defer sys.Close()
	mgr, err := NewManager(Options{Dir: t.TempDir(), Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Restore(RunConfig{System: sys, Checkpoints: mgr, Every: 1, Slide: testSlide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(fixes), nil, 0)
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)
	saves := 0
	res, err := run.Slides(context.Background(), Loop{
		Capture: func(st *State) (err error) {
			st.System, err = sys.Snapshot()
			if err != nil {
				t.Errorf("checkpoint at %s: %v", st.Query, err)
			}
			saves++
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves != res.Slides {
		t.Errorf("%d checkpoints over %d slides, want one per slide", saves, res.Slides)
	}
	if n := metricValue(t, reg, "maritime_pipeline_lookahead_slides_total"); n != 0 {
		t.Errorf("%v slides tracked ahead past a checkpoint", n)
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("snapshot after the run: %v", err)
	}
}

// Compile-time check: the serving gateway is a slide-loop pipeline.
var _ Pipeline = (*serve.Gateway)(nil)
