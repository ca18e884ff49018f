// Package cli is the one place the command line of the surveillance
// pipeline is wired (paper Fig. 1: AIS stream → mobility tracking → CE
// recognition → archival and alerts). Each command registers only the
// flags it takes, with its own defaults; what those flags build lives
// here:
//
//   - World: -vessels -seed -areas -hours → the fleet simulator and the
//     static knowledge the pipeline adapts from it;
//   - Pipeline: the window and pipeline flags → core.Config (with the
//     degradation ladder reading the ingest backlog), the checkpoint
//     manager and the restored checkpoint.Run;
//   - the -debug-addr sidecar, the in-process feed of self-contained
//     runs, the HTTP listener life cycle and the signal context.
package cli

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// World is the simulated world. Every process of one run regenerates
// the same static knowledge (areas, vessel registry, ports) and the
// same fix stream from these values, so a feed and each of its
// consumers must be given the same ones.
type World struct {
	Vessels int
	Seed    int64
	Areas   int
	// Hours is the simulated duration. A command whose world is never
	// simulated (a cluster worker reads its slice feed) leaves it 0 and
	// takes no -hours flag: the static knowledge does not depend on it.
	Hours float64
}

// DefaultWorld is the world most commands default to: 300 vessels,
// seed 1, 35 areas, 6 hours.
func DefaultWorld() World { return World{Vessels: 300, Seed: 1, Areas: 35, Hours: 6} }

// Flags registers -vessels -seed -areas, and -hours unless w.Hours is
// 0, on fs with w's values as their defaults.
func (w *World) Flags(fs *flag.FlagSet) {
	fs.IntVar(&w.Vessels, "vessels", w.Vessels, "fleet size N (the world flags must match across a feed and its consumers)")
	fs.Int64Var(&w.Seed, "seed", w.Seed, "world/fleet seed")
	fs.IntVar(&w.Areas, "areas", w.Areas, "areas of interest")
	if w.Hours != 0 {
		fs.Float64Var(&w.Hours, "hours", w.Hours, "simulated duration in hours")
	}
}

// Config is the fleet simulator's configuration for w.
func (w World) Config() fleetsim.Config {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = w.Vessels
	cfg.Seed = w.Seed
	cfg.NumAreas = w.Areas
	cfg.Duration = time.Duration(w.Hours * float64(time.Hour))
	return cfg
}

// Simulator builds the world's simulator without running it: only a
// command that serves or replays the fix stream pays for simulating it.
func (w World) Simulator() *fleetsim.Simulator { return fleetsim.NewSimulator(w.Config()) }

// Pipeline holds the window and pipeline flags.
type Pipeline struct {
	Window, Slide    time.Duration
	Shards           int
	Watchdog         time.Duration
	Degrade          bool
	DegradeSlideHigh time.Duration
	DegradeDepthHigh int
	IngestBuffer     int
	Pairwise         bool
	CheckpointDir    string
	CheckpointEvery  int
}

// DefaultPipeline is the pipeline most commands default to: ω = 1 h,
// β = 10 min, four tracker shards per CPU, an 8192-fix ingest backlog,
// a checkpoint every 6 slides, and no watchdog, degradation or pairwise
// tier.
func DefaultPipeline() Pipeline {
	return Pipeline{Window: time.Hour, Slide: 10 * time.Minute, IngestBuffer: 8192, CheckpointEvery: 6}
}

// Flags registers the named pipeline flags on fs, or all of them when
// no name is given, with p's values as their defaults.
func (p *Pipeline) Flags(fs *flag.FlagSet, names ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.DurationVar(&p.Window, "window", p.Window, "window range ω")
	all.DurationVar(&p.Slide, "slide", p.Slide, "window slide β")
	all.IntVar(&p.Shards, "shards", p.Shards, "mobility-tracker shards (0 = four per CPU, 1 = serial)")
	all.DurationVar(&p.Watchdog, "watchdog", p.Watchdog, "per-slide budget of recognition and of each tracker shard; a wedged one is quarantined (0 = off)")
	all.BoolVar(&p.Degrade, "degrade", p.Degrade, "shed work under overload (defer archival → instantaneous-only recognition → shed stationary vessels) and climb back when healthy")
	all.DurationVar(&p.DegradeSlideHigh, "degrade-slide-high", p.DegradeSlideHigh, "per-slide cost above which the pipeline degrades (0 = 80% of -slide)")
	all.IntVar(&p.DegradeDepthHigh, "degrade-depth-high", p.DegradeDepthHigh, "ingest-backlog depth above which the pipeline degrades (0 = 3/4 of -ingest-buffer)")
	all.IntVar(&p.IngestBuffer, "ingest-buffer", p.IngestBuffer, "ingest backlog bound for live feeds, in fixes; beyond it the oldest are dropped and counted (0 = lossless, one slide of read-ahead, backpressure to the feed)")
	all.BoolVar(&p.Pairwise, "pairwise", p.Pairwise, "run the cross-vessel analytics tier (rendezvous, dark gap linking, collision screening)")
	all.StringVar(&p.CheckpointDir, "checkpoint-dir", p.CheckpointDir, "checkpoint directory for crash-safe restart (empty = off)")
	all.IntVar(&p.CheckpointEvery, "checkpoint-every", p.CheckpointEvery, "checkpoint every N slides on the slide grid: at each query time that is a multiple of N × -slide, the same cut in serve, recognize and every cluster worker (plus a final checkpoint at the end)")
	if len(names) == 0 {
		all.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	}
	for _, name := range names {
		f := all.Lookup(name) // nil, and a panic at start-up, for a name that is no pipeline flag
		fs.Var(f.Value, f.Name, f.Usage)
	}
}

// Config is the core.Config of the flags. With -degrade its ladder has
// no depth source yet: Start connects it to the run's ingest stage.
func (p *Pipeline) Config() core.Config {
	cfg := core.Config{
		Window:          stream.WindowSpec{Range: p.Window, Slide: p.Slide},
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: p.Window},
		TrackerShards:   p.Shards,
		WatchdogTimeout: p.Watchdog,
	}
	if p.Pairwise {
		cfg.Analytics = &analytics.Config{EnableCollision: true}
	}
	if p.Degrade {
		spec := &core.DegradeSpec{SlideHigh: p.DegradeSlideHigh, DepthHigh: p.DegradeDepthHigh}
		if spec.SlideHigh <= 0 {
			spec.SlideHigh = p.Slide * 8 / 10
		}
		if spec.DepthHigh <= 0 && p.IngestBuffer > 0 {
			spec.DepthHigh = p.IngestBuffer * 3 / 4
		}
		cfg.Degrade = spec
	}
	return cfg
}

// Start builds the pipeline over sim's world and registers its metrics
// on reg, then restores the newest valid checkpoint under
// -checkpoint-dir, before anything reads the system or the stream. The
// degradation ladder reads the backlog of the ingest stage the caller
// builds with run.Ingest.
func (p *Pipeline) Start(sim *fleetsim.Simulator, reg *obs.Registry, logf func(string, ...any)) (*core.System, *checkpoint.Run, error) {
	cfg := p.Config()
	var run *checkpoint.Run
	if cfg.Degrade != nil {
		// Read only while a slide is processed, after run.Ingest.
		cfg.Degrade.DepthFunc = func() int { return run.Pending() }
	}
	vessels, areas, ports := core.AdaptWorld(sim)
	sys := core.NewSystem(cfg, vessels, areas, ports)
	sys.RegisterMetrics(reg)
	runCfg := checkpoint.RunConfig{System: sys, Every: p.CheckpointEvery, Slide: p.Slide, Logf: logf}
	if p.CheckpointDir != "" {
		mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: p.CheckpointDir})
		if err != nil {
			return nil, nil, err
		}
		mgr.RegisterMetrics(reg)
		runCfg.Checkpoints = mgr
	}
	run, err := checkpoint.Restore(runCfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, run, nil
}

// Registry is a metrics registry carrying the Go runtime's series.
func Registry() *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	return reg
}

// DebugFlag registers -debug-addr on fs.
func DebugFlag(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "", "sidecar listener for /metrics and /debug/pprof (empty = off)")
}

// ServeDebug serves reg's /metrics and net/http/pprof on addr for the
// rest of the process's life, on a listener of its own so scrapes and
// profiles never share a serving address; an empty addr is off.
func ServeDebug(addr string, reg *obs.Registry) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("debug on http://%s  (/metrics /debug/pprof)", addr)
		if err := http.ListenAndServe(addr, obs.DebugMux(reg)); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug listener: %v", err)
		}
	}()
}

// ServeHTTP serves h on addr in the background, exiting the process if
// the listener fails, and returns the function that shuts it down.
func ServeHTTP(addr string, h http.Handler) (shutdown func()) {
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	return func() {
		ctx, stop := context.WithTimeout(context.Background(), 2*time.Second)
		defer stop()
		_ = srv.Shutdown(ctx) // past the deadline the process exits anyway
	}
}

// InternalFeed serves sim's fix stream from an in-process feed server
// on a loopback port, paced at speedup (0 = as fast as possible), until
// ctx ends, and returns its address. A self-contained run ingests
// through it so its ingest path — reconnecting client, RESUME
// handshake, ingest stage, health accounting — is a live run's. The
// stream is simulated here, not when the world is built, so a run
// against a live feed never pays for it.
func InternalFeed(ctx context.Context, sim *fleetsim.Simulator, speedup float64) string {
	srv := &feed.Server{Source: feed.NewReplay(sim.Run()), Speedup: speedup, HandshakeWait: feed.DefaultHandshakeWait}
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := srv.ListenAndServe(ctx, "127.0.0.1:0", addrCh); err != nil {
			log.Printf("internal feed: %v", err)
		}
	}()
	addr := (<-addrCh).String()
	log.Printf("internal feed on %s (%gx)", addr, speedup)
	return addr
}

// SignalContext derives from parent a context that is also cancelled
// on SIGINT or SIGTERM; until its cancel function is called, those
// signals no longer end the process.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
