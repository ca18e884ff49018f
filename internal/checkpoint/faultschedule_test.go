package checkpoint

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// The fault-schedule test: the paced shape of the end-to-end benchmark
// (N = 1500, 35 areas, ω = 2 h, β = 1 min, scripted pairs, pairwise
// analytics and the watchdog on) driven through Run.Slides and a
// gateway, checkpointing every fsEvery slides, with a tracker-shard
// panic, a recognizer stall and a store panic injected at fixed stream
// slides. Against a fault-free run of the same stream it measures what
// the recovery costs: the alerts a live subscriber receives and their
// sequence numbers, how many processed slides each fault leaves the
// system unhealthy for, and the per-slide wall time the driver sees.

const (
	fsSlide   = time.Minute
	fsWindow  = 2 * time.Hour
	fsEvery   = 6
	fsShards  = 4
	fsStream  = 130 * time.Minute
	fsTimeout = 2 * time.Second
)

// The stream slides (0-based) the faults hit, each far enough from the
// others that the recovery of one is over before the next. The stall
// hits the slide that raises the stream's first recognition alert.
const (
	fsShardPanic = 40
	fsStorePanic = 70
	fsRecStall   = 104
)

// fsWorld is the paced shape's world and stream, built once.
var fsWorld = sync.OnceValues(func() (*fleetsim.Simulator, []stream.Batch) {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = 1500
	cfg.NumAreas = 35
	cfg.RendezvousPairs = 30
	cfg.DarkPairs = 30
	cfg.Duration = fsStream
	sim := fleetsim.NewSimulator(cfg)
	return sim, batchesOf(stream.NewBatcher(stream.NewSliceSource(sim.Run()), fsSlide))
})

func fsConfig() core.Config {
	return core.Config{
		Window:          stream.WindowSpec{Range: fsWindow, Slide: fsSlide},
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: fsWindow},
		TrackerShards:   fsShards,
		WatchdogTimeout: fsTimeout,
		Analytics:       &analytics.Config{EnableCollision: true},
	}
}

// fsRun is what one run delivered and how it went.
type fsRun struct {
	envs   []serve.Envelope   // what a live subscriber received, in order
	states []fsProcessed      // every processed slide, in processing order
	walls  []time.Duration    // between the driver's consecutive reports
	final  string             // archival and tracker state after Drain
	health core.Health        // at the end
	faults map[string]float64 // fault → slides until healthy
}

// fsProcessed is one processed slide: its query and health state.
type fsProcessed struct {
	q     time.Time
	state string
}

// runFaultSchedule drives one run through Run.Slides and a gateway.
// With inject set it arms the three faults, each to fire once, on the
// first processing of its stream slide.
func runFaultSchedule(t *testing.T, inject bool) *fsRun {
	t.Helper()
	sim, batches := fsWorld()
	var fixes = fixesOf(batches)
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(fsConfig(), vessels, areas, ports)
	defer sys.Close()

	out := &fsRun{}
	var mu sync.Mutex
	sys.OnSlideEnd(func(rep core.SlideReport) {
		mu.Lock()
		out.states = append(out.states, fsProcessed{rep.Query, rep.Health.State()})
		mu.Unlock()
	})
	release := make(chan struct{})
	defer close(release)
	if inject {
		var cur atomic.Int64 // query of the slide being processed, unix ns
		sys.SetFreshObserver(func(q time.Time, _ []tracker.CriticalPoint) { cur.Store(q.UnixNano()) })
		at := func(k int) int64 { return batches[k].Query.UnixNano() }
		var shardOnce, stallOnce, storeOnce atomic.Bool
		sys.Tracker().SetFaultHook(func(shard int, q time.Time) {
			if shard == 1 && q.UnixNano() == at(fsShardPanic) && shardOnce.CompareAndSwap(false, true) {
				panic("injected shard fault")
			}
		})
		core.SetRecognizerFaultHook(func() {
			if cur.Load() == at(fsRecStall) && stallOnce.CompareAndSwap(false, true) {
				<-release
			}
		})
		defer core.SetRecognizerFaultHook(nil)
		sys.SetStoreFaultHook(func() {
			if cur.Load() == at(fsStorePanic) && storeOnce.CompareAndSwap(false, true) {
				panic("injected store fault")
			}
		})
	}

	gw := serve.New(sys, serve.Options{RingSize: 1 << 16})
	sub := gw.Hub().Subscribe(serve.Filter{}, 1<<20)
	collected := make(chan []serve.Envelope)
	go func() {
		var envs []serve.Envelope
		for {
			e, ok := sub.Next()
			if !ok {
				collected <- envs
				return
			}
			envs = append(envs, e)
		}
	}()

	mgr, err := NewManager(Options{Dir: t.TempDir(), Keep: 4})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Restore(RunConfig{System: sys, Checkpoints: mgr, Every: fsEvery, Slide: fsSlide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(fixes), nil, 0)
	last := time.Now()
	res, err := run.Slides(context.Background(), Loop{
		Pipeline: gw,
		Report: func(stream.Batch, core.SlideReport) error {
			now := time.Now()
			out.walls = append(out.walls, now.Sub(last))
			last = now
			return nil
		},
		Capture: func(st *State) (err error) {
			gw.Quiesce(func() {
				if st.System, err = sys.Snapshot(); err == nil {
					hub := gw.Hub().Snapshot()
					st.Hub = &hub
				}
			})
			return err
		},
		Restore: func(st *State) (err error) {
			gw.Quiesce(func() {
				if err = sys.RestoreSnapshot(st.System); err == nil {
					gw.Hub().Restore(*st.Hub)
				}
			})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Drain(res.Last)
	for sub.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
	if st := sub.Stats(); st.Dropped != 0 {
		t.Fatalf("the subscriber dropped %d envelopes", st.Dropped)
	}
	sub.Close()
	out.envs = <-collected
	out.final = renderFinal(sys)
	out.health = sys.Health()
	if inject {
		out.faults = map[string]float64{}
		for name, k := range map[string]int{"shard-panic": fsShardPanic, "recognizer-stall": fsRecStall, "store-panic": fsStorePanic} {
			out.faults[name] = slidesUntilOK(out.states, batches[k].Query)
		}
	}
	return out
}

// fsClean is the fault-free run, shared by repeated runs of the test.
var fsClean struct {
	once sync.Once
	run  *fsRun
}

// fixesOf flattens batches back into their stream.
func fixesOf(batches []stream.Batch) (fixes []ais.Fix) {
	for _, b := range batches {
		fixes = append(fixes, b.Fixes...)
	}
	return fixes
}

// slidesUntilOK counts the slides processed after the first processing
// of the faulted slide q until one reports a healthy system: 0 when the
// faulted slide itself reports ok. -1 when none does.
func slidesUntilOK(states []fsProcessed, q time.Time) float64 {
	for i, p := range states {
		if !p.q.Equal(q) {
			continue
		}
		for j := i; j < len(states); j++ {
			if states[j].state == "ok" {
				return float64(j - i)
			}
		}
		return -1
	}
	return -1
}

// quantile is the q-quantile of ds by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

// TestFaultSchedule holds the recovery of a tracker-shard panic, a
// recognizer stall and a store panic to the fault-free run: a live
// subscriber receives every alert exactly once, under the sequence
// number the fault-free run gave it, and every target is healthy again
// within two processed slides of its fault. It logs the row EXPERIMENTS
// records: slides until healthy per fault and the driver's per-slide
// wall time.
func TestFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("paced-shape fault schedule")
	}
	fsClean.once.Do(func() { fsClean.run = runFaultSchedule(t, false) })
	clean := fsClean.run
	if clean == nil {
		t.Fatal("the fault-free run failed")
	}
	faulted := runFaultSchedule(t, true)

	if len(clean.envs) == 0 {
		t.Fatal("the fault-free run delivered no alerts; the comparison is vacuous")
	}
	if len(faulted.envs) != len(clean.envs) {
		t.Errorf("delivered %d envelopes, the fault-free run %d", len(faulted.envs), len(clean.envs))
	}
	// Exactly once: the same alerts, and the same sequence numbers, each
	// delivered once.
	alerts := func(envs []serve.Envelope) (out []string) {
		for _, e := range envs {
			out = append(out, e.Alert.String())
		}
		sort.Strings(out)
		return out
	}
	want, got := alerts(clean.envs), alerts(faulted.envs)
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			t.Errorf("delivered alerts differ from the fault-free run's at %d:\n  want %s\n  got  %s", i, want[i], got[i])
			break
		}
	}
	bySeq := map[uint64]string{}
	for _, e := range clean.envs {
		bySeq[e.Seq] = e.Alert.String()
	}
	seen := map[uint64]bool{}
	moved := 0 // delivered under another sequence number than the fault-free run's
	for _, e := range faulted.envs {
		if seen[e.Seq] {
			t.Errorf("sequence %d delivered twice", e.Seq)
		}
		seen[e.Seq] = true
		a, ok := bySeq[e.Seq]
		if !ok {
			t.Errorf("sequence %d was not used by the fault-free run", e.Seq)
		}
		if a != e.Alert.String() {
			moved++
		}
	}
	if faulted.final != clean.final {
		t.Errorf("final state differs:\n  want %s\n  got  %s", clean.final, faulted.final)
	}
	h := faulted.health
	if h.PanicsRecovered < 2 || h.WatchdogTrips < 1 {
		t.Errorf("the faults did not all fire: %s", h)
	}
	if h.State() != "ok" {
		t.Errorf("ended %s", h)
	}
	for name, n := range faulted.faults {
		if n < 0 || n > 2 {
			t.Errorf("%s: %v slides until healthy, want at most 2", name, n)
		}
	}
	t.Logf("fault-free: %d slides, %d alerts, wall p50 %s p99 %s max %s",
		len(clean.walls), len(clean.envs), quantile(clean.walls, .5), quantile(clean.walls, .99), slices.Max(clean.walls))
	t.Logf("faulted:    %d slides (%d processed), %d alerts (%d under another sequence number), wall p50 %s p99 %s max %s; slides until healthy %v; %s",
		len(faulted.walls), len(faulted.states), len(faulted.envs), moved, quantile(faulted.walls, .5), quantile(faulted.walls, .99),
		slices.Max(faulted.walls), faulted.faults, h)
}
