package faults_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// The fault-recovery chaos suite: the pipeline runs under sustained
// fault injection through checkpoint.Run, which rewinds to its newest
// checkpoint and replays after every fault, and its output must match
// the fault-free golden run apart from losses the health ledger
// accounts for. Run under -race via `make test-chaos`.

// chaosWorld materializes a deterministic fleet into slide batches plus
// the recognizer's static world.
func chaosWorld(t *testing.T, vessels, hours int, slide time.Duration) ([]stream.Batch, []maritime.Vessel, []maritime.Area, []mod.PortArea) {
	t.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = time.Duration(hours) * time.Hour
	sim := fleetsim.NewSimulator(cfg)
	fixes := sim.Run()
	if len(fixes) == 0 {
		t.Fatal("simulator produced no fixes")
	}
	vs, areas, ports := core.AdaptWorld(sim)
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), slide)
	var batches []stream.Batch
	for {
		b, ok := batcher.Next()
		if !ok {
			return batches, vs, areas, ports
		}
		batches = append(batches, b)
	}
}

// renderChaosSlide canonicalizes one slide's observable output for
// byte-exact comparison.
func renderChaosSlide(rep core.SlideReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%s fixes=%d cps=%d trips=%d alerts=[",
		rep.Query.UTC().Format(time.RFC3339), rep.FixesIn, rep.CriticalPoints, rep.TripsCompleted)
	alerts := make([]maritime.Alert, len(rep.Alerts))
	copy(alerts, rep.Alerts)
	sort.Slice(alerts, func(i, j int) bool { return maritime.CompareAlerts(alerts[i], alerts[j]) < 0 })
	for i, a := range alerts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(']')
	return b.String()
}

// fixesOf flattens slide batches back into their stream.
func fixesOf(batches []stream.Batch) (fixes []ais.Fix) {
	for _, b := range batches {
		fixes = append(fixes, b.Fixes...)
	}
	return fixes
}

// chaosRun drives sys over the batches' stream through checkpoint.Run,
// checkpointing into dir every `every` slides (restoring the newest
// checkpoint there first), and returns the rendered reports the loop
// passed on.
func chaosRun(t *testing.T, sys *core.System, batches []stream.Batch, dir string, every int) []string {
	t.Helper()
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	slide := batches[1].Query.Sub(batches[0].Query)
	run, err := checkpoint.Restore(checkpoint.RunConfig{System: sys, Checkpoints: mgr, Every: every, Slide: slide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(fixesOf(batches)), nil, 0)
	var got []string
	if _, err := run.Slides(context.Background(), checkpoint.Loop{
		Report: func(_ stream.Batch, rep core.SlideReport) error {
			got = append(got, renderChaosSlide(rep))
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestChaosShardKill100Equivalence is the headline guarantee: kill a
// tracker shard worker 100 times over a run and the output must be
// byte-identical to the no-fault golden run — every kill recovered by
// a rewind to the newest checkpoint and a replay (zero loss to
// account for), and the process never exiting.
func TestChaosShardKill100Equivalence(t *testing.T) {
	const slide = 10 * time.Minute
	const kills = 100
	batches, vessels, areas, ports := chaosWorld(t, 150, 6, slide)
	if (len(batches)-1)*3 < kills {
		t.Fatalf("run too short: %d slides x 3 shards < %d kill sites", len(batches)-1, kills)
	}
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 4,
		Recognition:   maritime.Config{Window: time.Hour},
	}

	golden := core.NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var want []string
	for _, b := range batches {
		want = append(want, renderChaosSlide(golden.ProcessBatch(b)))
	}

	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	// Three shards die the first time they track each slide after the
	// first (which the first checkpoint covers), until 100 have died.
	var killed atomic.Int64
	var mu sync.Mutex
	seen := map[string]bool{}
	sys.Tracker().SetFaultHook(func(shard int, q time.Time) {
		if shard == 0 || !q.After(batches[0].Query) {
			return
		}
		key := fmt.Sprint(shard, q.Unix())
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		mu.Unlock()
		if first && killed.Add(1) <= kills {
			panic(fmt.Sprintf("chaos: killing shard %d at %s", shard, q))
		}
	})
	got := chaosRun(t, sys, batches, t.TempDir(), 1)
	if len(got) != len(want) {
		t.Fatalf("reported %d slides, golden %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slide %d diverges from golden under shard kills:\n  golden: %s\n  chaos:  %s", i, want[i], got[i])
		}
	}

	fs := sys.Tracker().FaultStats()
	if fs.Panics != kills {
		t.Errorf("fault stats: %+v, want Panics=%d", fs, kills)
	}
	if fs.Quarantined != 0 || fs.Failed != 0 {
		t.Errorf("every killed shard must be back in service: %+v", fs)
	}
	h := sys.Health()
	if h.PanicsRecovered != kills {
		t.Errorf("Health.PanicsRecovered = %d, want %d", h.PanicsRecovered, kills)
	}
	if h.Restores == 0 || h.TotalDropped() != 0 || h.ReplayGapSlides != 0 {
		t.Errorf("health %s: want rewinds and nothing lost", h)
	}
	if h.State() != "ok" {
		t.Errorf("final state %q, want ok", h.State())
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after 100 recovered kills: %v", err)
	}
}

// TestChaosShardFencedUntilRestart escalates past one
// rewind: a shard dies on every attempt at one slide, so the replay
// hits the fault again and the shard is fenced — its fixes dropped and
// accounted, State wedged. A restart from the newest checkpoint (a
// fresh process, as an operator or supervisor would start it), which
// predates the fault, restores it, and its output is golden's.
func TestChaosShardFencedUntilRestart(t *testing.T) {
	const slide = 10 * time.Minute
	batches, vessels, areas, ports := chaosWorld(t, 150, 6, slide)
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 4,
		Recognition:   maritime.Config{Window: time.Hour},
	}
	// The shard dies at one slide a third into the run, every time.
	killAt := batches[len(batches)/3].Query
	const killShard = 2
	const every = 3

	golden := core.NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var want []string
	for _, b := range batches {
		want = append(want, renderChaosSlide(golden.ProcessBatch(b)))
	}

	dir := t.TempDir()
	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	sys.Tracker().SetFaultHook(func(shard int, q time.Time) {
		if shard == killShard && q.Equal(killAt) {
			panic("chaos: shard dies on every attempt")
		}
	})
	got := chaosRun(t, sys, batches, dir, every)
	if len(got) != len(want) {
		t.Fatalf("reported %d slides, golden %d", len(got), len(want))
	}
	k := len(batches) / 3
	for i := 0; i < k; i++ {
		if got[i] != want[i] {
			t.Fatalf("pre-fault slide %d diverges:\n  golden: %s\n  chaos:  %s", i, want[i], got[i])
		}
	}
	h := sys.Health()
	if h.Failed != 1 || h.State() != "wedged" || h.Restores != 1 {
		t.Errorf("health %s: want one rewind and the shard fenced", h)
	}
	if h.DropsByCause["shard-down"] == 0 {
		t.Error("the fenced shard's dropped fixes must be accounted under shard-down")
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot with a fenced shard should fail")
	}

	// The restart: a fresh system restores the newest checkpoint, which
	// predates the fault, and replays the stream from its cursor.
	restarted := core.NewSystem(cfg, vessels, areas, ports)
	defer restarted.Close()
	rest := chaosRun(t, restarted, batches, dir, every)
	tail := want[len(want)-len(rest):]
	if len(rest) < len(want)-k {
		t.Fatalf("the restart replayed %d slides; want it to resume from a checkpoint before the fault", len(rest))
	}
	for i := range rest {
		if rest[i] != tail[i] {
			t.Fatalf("slide %d after the restart diverges:\n  golden: %s\n  chaos:  %s", i, tail[i], rest[i])
		}
	}
	if h := restarted.Health(); h.State() != "ok" {
		t.Errorf("restarted state %q, want ok (health: %s)", h.State(), h)
	}
}

// TestChaosLoadSpikeDegradationLadder drives a scripted ingest-backlog
// spike through the ladder: the pipeline must climb one rung per slide
// to shedding, ride out the spike degraded instead of falling behind,
// climb back down when the backlog clears, and export every transition
// via /metrics.
func TestChaosLoadSpikeDegradationLadder(t *testing.T) {
	const slide = 10 * time.Minute
	batches, vessels, areas, ports := chaosWorld(t, 150, 6, slide)
	if len(batches) < 20 {
		t.Fatalf("run too short for a spike window: %d slides", len(batches))
	}
	spikeFrom, spikeTo := 6, 12 // backlog high on slides [6, 12)

	var depth atomic.Int64
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 2,
		Recognition:   maritime.Config{Window: time.Hour},
		Degrade: &core.DegradeSpec{
			SlideHigh:  time.Hour, // latency never votes in this test
			DepthHigh:  1000,
			DepthFunc:  func() int { return int(depth.Load()) },
			EnterAfter: 1,
			ExitAfter:  1,
		},
	}
	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)

	var levels []int
	for i, b := range batches {
		if i >= spikeFrom && i < spikeTo {
			depth.Store(5000)
		} else {
			depth.Store(0)
		}
		sys.ProcessBatch(b)
		levels = append(levels, sys.DegradationLevel())
	}

	// The ladder climbs one rung per spiking slide and descends one rung
	// per healthy slide — never jumping, never sticking.
	wantAt := func(i int) int {
		switch {
		case i < spikeFrom:
			return 0
		case i < spikeTo:
			return min(i-spikeFrom+1, core.DegradeShedStationary)
		default:
			return max(core.DegradeShedStationary-(i-spikeTo+1), 0)
		}
	}
	for i, lv := range levels {
		if lv != wantAt(i) {
			t.Fatalf("slide %d: degradation level %d, want %d (levels: %v)", i, lv, wantAt(i), levels)
		}
	}
	h := sys.Health()
	if h.DegradationLevel != 0 {
		t.Errorf("ladder did not climb back down: level %d", h.DegradationLevel)
	}
	wantTransitions := 2 * core.DegradeShedStationary // three rungs up, three down
	if h.DegradationTransitions != wantTransitions {
		t.Errorf("DegradationTransitions = %d, want %d", h.DegradationTransitions, wantTransitions)
	}

	// The excursion is visible on /metrics.
	var buf strings.Builder
	reg.WriteText(&buf)
	text := buf.String()
	if !strings.Contains(text, "maritime_degradation_level 0") {
		t.Errorf("/metrics should export the (recovered) degradation level gauge:\n%s", grepMetric(text, "maritime_degradation"))
	}
	if !strings.Contains(text, fmt.Sprintf("maritime_degradation_transitions_total %d", wantTransitions)) {
		t.Errorf("/metrics should export %d ladder transitions:\n%s", wantTransitions, grepMetric(text, "maritime_degradation"))
	}
}

// grepMetric extracts the lines of one metric family for error output.
func grepMetric(text, prefix string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, prefix) || strings.HasPrefix(ln, "# ") && strings.Contains(ln, prefix) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
