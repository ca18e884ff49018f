package faults_test

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/tracker"
)

// The supervision chaos suite: the pipeline runs with Config.SelfHeal
// under sustained fault injection and its surviving output must match
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

// TestChaosShardKill100Equivalence is the issue's headline guarantee:
// kill a tracker shard worker 100 times over a run and the surviving
// output must be byte-identical to the no-fault golden run, with every
// panic recovered in-slide (zero replay gaps to account for) and the
// process never exiting.
func TestChaosShardKill100Equivalence(t *testing.T) {
	const slide = 10 * time.Minute
	const kills = 100
	batches, vessels, areas, ports := chaosWorld(t, 150, 6, slide)
	if len(batches)*4 < kills {
		t.Fatalf("run too short: %d slides x 4 shards < %d kill sites", len(batches), kills)
	}
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 4,
		Recognition:   maritime.Config{Window: time.Hour},
		SelfHeal:      true,
	}

	golden := core.NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var want []string
	for _, b := range batches {
		want = append(want, renderChaosSlide(golden.ProcessBatch(b)))
	}

	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	var killed atomic.Int64
	sys.Tracker().SetFaultHook(func(shard, slideNo, attempt int) {
		// First-attempt kills only: the in-slide retry recovers each one
		// losslessly, so 100 deaths cost nothing but latency.
		if attempt == 0 && killed.Add(1) <= kills {
			panic(fmt.Sprintf("chaos: killing shard %d at slide %d", shard, slideNo))
		}
	})
	for i, b := range batches {
		got := renderChaosSlide(sys.ProcessBatch(b))
		if got != want[i] {
			t.Fatalf("slide %d diverges from golden under shard kills:\n  golden: %s\n  chaos:  %s", i, want[i], got)
		}
	}

	fs := sys.Tracker().FaultStats()
	if fs.Panics != kills || fs.Retries != kills {
		t.Errorf("fault stats: %+v, want Panics=Retries=%d", fs, kills)
	}
	if fs.Quarantined != 0 || fs.DroppedFixes != 0 || fs.GapSlides != 0 {
		t.Errorf("first-attempt kills must recover losslessly: %+v", fs)
	}
	h := sys.Health()
	if h.PanicsRecovered != kills {
		t.Errorf("Health.PanicsRecovered = %d, want %d", h.PanicsRecovered, kills)
	}
	if h.ReplayGapSlides != 0 {
		t.Errorf("ReplayGapSlides = %d, want 0 (nothing to account)", h.ReplayGapSlides)
	}
	if h.State() != "ok" {
		t.Errorf("final state %q, want ok", h.State())
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after 100 recovered kills: %v", err)
	}
}

// TestChaosShardQuarantineSupervisorRestores escalates past the
// in-slide retry: one shard dies on the retry too, so the tier must
// quarantine it (its fixes dropped and accounted), the supervisor must
// restore it by journal replay, and once the window range has flushed
// the transient the per-slide output must re-converge with golden.
func TestChaosShardQuarantineSupervisorRestores(t *testing.T) {
	const slide = 10 * time.Minute
	batches, vessels, areas, ports := chaosWorld(t, 150, 6, slide)
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 4,
		Recognition:   maritime.Config{Window: time.Hour},
		SelfHeal:      true,
	}
	// The shard dies on both attempts of one slide a third into the run.
	killSlide := len(batches) / 3
	const killShard = 2

	golden := core.NewSystem(cfg, vessels, areas, ports)
	defer golden.Close()
	var want []string
	for _, b := range batches {
		want = append(want, renderChaosSlide(golden.ProcessBatch(b)))
	}

	sys := core.NewSystem(cfg, vessels, areas, ports)
	defer sys.Close()
	var slideNo atomic.Int64
	sys.Tracker().SetFaultHook(func(shard, _, _ int) {
		if shard == killShard && int(slideNo.Load()) == killSlide {
			panic("chaos: shard dies on every attempt")
		}
	})
	sup := supervise.New(sys, supervise.Policy{InitialBackoff: time.Millisecond})
	sys.OnSlideEnd(func(core.SlideReport) { sup.Poll() })

	// The supervisor polls at slide end, so the quarantine can be healed
	// before control returns here — observe it through the repair ledger.
	healedBy := -1
	for i, b := range batches {
		slideNo.Store(int64(i))
		got := renderChaosSlide(sys.ProcessBatch(b))
		q := len(sys.Quarantined()) > 0
		if healedBy < 0 && i >= killSlide && !q && sys.Tracker().FaultStats().Repairs > 0 {
			healedBy = i
		}
		if i < killSlide && got != want[i] {
			t.Fatalf("pre-fault slide %d diverges:\n  golden: %s\n  chaos:  %s", i, want[i], got)
		}
		// One window range after the repair every transient has flushed:
		// tracker state replayed back to golden, recognizer window rolled
		// past the quarantine's lost events.
		flush := int(cfg.Window.Range/slide) + 1
		if healedBy >= 0 && i > healedBy+flush && got != want[i] {
			t.Fatalf("slide %d (repaired at %d) still diverges:\n  golden: %s\n  chaos:  %s", i, healedBy, want[i], got)
		}
	}
	if healedBy < 0 {
		t.Fatal("supervisor never restored the quarantined shard")
	}

	fs := sys.Tracker().FaultStats()
	if fs.Quarantined != 0 || fs.Repairs == 0 {
		t.Errorf("shard not restored: %+v", fs)
	}
	if st := sup.Stats(); st.Repairs == 0 || st.GiveUps != 0 {
		t.Errorf("supervisor stats: %+v, want at least one repair and no give-ups", st)
	}
	h := sys.Health()
	if h.DropsByCause["shard-down"] == 0 {
		t.Error("quarantine window's dropped fixes must be accounted under shard-down")
	}
	if h.State() != "ok" {
		t.Errorf("final state %q, want ok after restoration (health: %s)", h.State(), h.String())
	}
	if _, err := sys.Snapshot(); err != nil {
		t.Errorf("Snapshot after restoration: %v", err)
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
		SelfHeal:      true,
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
