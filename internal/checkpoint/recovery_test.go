package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// The kill-and-restore equivalence harness: a pipeline killed at an
// arbitrary slide and restored from its newest checkpoint must produce,
// for the durable prefix (everything up to the checkpoint) concatenated
// with everything after the restore, byte-identical output to an
// uninterrupted run — critical points, alerts and trips alike. Slides
// between the last checkpoint and the kill are re-processed on replay;
// determinism makes the re-emission identical, and the gateway's
// sequence numbers make it deduplicatable downstream.

const testSlide = 10 * time.Minute

// testFleet builds a deterministic world and its fix stream once per
// test.
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

// newPipeline assembles a fresh system over the world with the given
// tracker shard count — every call must be state-identical so that a
// restored system differs from the crashed one only by its snapshot.
func newPipeline(sim *fleetsim.Simulator, shards int) *core.System {
	vessels, areas, ports := core.AdaptWorld(sim)
	return core.NewSystem(core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: time.Hour},
		TrackerShards: shards,
	}, vessels, areas, ports)
}

// renderSlide canonicalizes one slide's observable output. Alerts are
// sorted so the comparison is insensitive to any future reordering
// inside a slide; everything else is already deterministic.
func renderSlide(rep core.SlideReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%s fixes=%d cps=%d trips=%d alerts=[",
		rep.Query.UTC().Format(time.RFC3339), rep.FixesIn, rep.CriticalPoints, rep.TripsCompleted)
	alerts := slices.Clone(rep.Alerts)
	slices.SortFunc(alerts, maritime.CompareAlerts)
	for i, a := range alerts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s@%s@%s@%d", a.CE, a.AreaID, a.Time.UTC().Format(time.RFC3339), a.Vessel)
	}
	b.WriteByte(']')
	return b.String()
}

// renderFinal canonicalizes the end-of-run archival state.
func renderFinal(sys *core.System) string {
	t4 := sys.Store().Table4Stats()
	st := sys.Tracker().Stats()
	return fmt.Sprintf("trips=%d trajPoints=%d staged=%d fixes=%d critical=%d",
		t4.Trips, t4.PointsInTrajectories, t4.PointsInStaging, st.FixesIn, st.Critical)
}

// referenceRun processes the whole stream uninterrupted.
func referenceRun(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix) ([]string, string) {
	t.Helper()
	sys := newPipeline(sim, 3)
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

// checkpointingRun processes the stream until killSlide (exclusive of
// further slides), checkpointing every saveEvery slides into mgr. It
// returns the rendered slides and the fix cursor bookkeeping happens
// inside — exactly the loop a checkpointing driver runs.
func checkpointingRun(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix, mgr *Manager, saveEvery, killSlide, shards int) []string {
	t.Helper()
	sys := newPipeline(sim, shards)
	defer sys.Close()
	batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
	var out []string
	var cur feed.Cursor
	slides := 0
	for slides < killSlide {
		b, ok := batcher.Next()
		if !ok {
			t.Fatalf("stream ended at slide %d before the kill point %d", slides, killSlide)
		}
		rep := sys.ProcessBatch(b)
		for _, f := range b.Fixes {
			cur.Note(f)
		}
		out = append(out, renderSlide(rep))
		slides++
		if slides%saveEvery == 0 {
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatalf("snapshot at slide %d: %v", slides, err)
			}
			st := &State{Query: rep.Query, System: snap, Cursor: cur.Clone(), Slides: slides}
			if err := mgr.Save(st); err != nil {
				t.Fatalf("checkpoint at slide %d: %v", slides, err)
			}
		}
	}
	// Process killed here: no Drain, no final checkpoint — the system is
	// simply abandoned, like a SIGKILL between two slides.
	return out
}

// resumeRun restores the newest checkpoint into a fresh pipeline (with
// restoreShards tracker shards) and replays the rest of the stream
// through a resume filter, returning the restored State, the rendered
// post-restore slides, and the final archival state.
func resumeRun(t *testing.T, sim *fleetsim.Simulator, fixes []ais.Fix, mgr *Manager, restoreShards int) (*State, []string, string) {
	t.Helper()
	st, err := mgr.RestoreNewest()
	if err != nil {
		t.Logf("restore skipped invalid checkpoints: %v", err)
	}
	if st == nil {
		t.Fatal("no checkpoint to restore")
	}
	sys := newPipeline(sim, restoreShards)
	defer sys.Close()
	if err := sys.RestoreSnapshot(st.System); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	src := feed.NewResumeFilter(stream.NewSliceSource(fixes), st.Cursor)
	batcher := stream.NewBatcherFrom(src, testSlide, st.Query)
	var out []string
	last := st.Query
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		rep := sys.ProcessBatch(b)
		out = append(out, renderSlide(rep))
		last = rep.Query
	}
	if src.Skipped() == 0 {
		t.Error("resume filter skipped nothing: the replay re-processed already-counted fixes")
	}
	sys.Drain(last)
	return st, out, renderFinal(sys)
}

// compareRuns asserts durable-prefix + resumed output == reference.
func compareRuns(t *testing.T, reference, killed, resumed []string, refFinal, resFinal string, ckptSlides int) {
	t.Helper()
	combined := append(slices.Clone(killed[:ckptSlides]), resumed...)
	if len(combined) != len(reference) {
		t.Fatalf("combined run has %d slides, reference %d (checkpoint at %d, %d resumed)",
			len(combined), len(reference), ckptSlides, len(resumed))
	}
	for i := range reference {
		if combined[i] != reference[i] {
			t.Fatalf("slide %d diverges after restore:\n  reference: %s\n  restored:  %s",
				i, reference[i], combined[i])
		}
	}
	if resFinal != refFinal {
		t.Errorf("final archival state diverges:\n  reference: %s\n  restored:  %s", refFinal, resFinal)
	}
}

func TestKillRestoreEquivalence(t *testing.T) {
	sim, fixes := testFleet(t, 120, 4)
	reference, refFinal := referenceRun(t, sim, fixes)
	if len(reference) < 12 {
		t.Fatalf("run too short for kill/restore coverage: %d slides", len(reference))
	}

	cases := []struct {
		name                 string
		saveEvery, killSlide int
		shards, restore      int
	}{
		{"kill-on-checkpoint-boundary", 3, 9, 3, 3},
		{"kill-between-checkpoints", 4, 10, 3, 3},
		{"kill-first-checkpoint", 2, 3, 3, 3},
		{"reshard-up-on-restore", 3, 9, 2, 5},
		{"reshard-down-on-restore", 3, 9, 4, 1},
		{"kill-near-end", 5, len(reference) - 1, 3, 3},
	}
	// Seeded randomized kills on top of the curated boundary cases, so
	// the suite probes arbitrary slide positions deterministically.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		saveEvery := 1 + rng.Intn(4)
		killSlide := saveEvery + rng.Intn(len(reference)-saveEvery-1)
		cases = append(cases, struct {
			name                 string
			saveEvery, killSlide int
			shards, restore      int
		}{fmt.Sprintf("random-kill-%d-every-%d", killSlide, saveEvery), saveEvery, killSlide, 3, 3})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr := newTestManager(t, Options{})
			killed := checkpointingRun(t, sim, fixes, mgr, tc.saveEvery, tc.killSlide, tc.shards)
			st, resumed, resFinal := resumeRun(t, sim, fixes, mgr, tc.restore)
			if want := tc.killSlide / tc.saveEvery * tc.saveEvery; st.Slides != want {
				t.Fatalf("restored checkpoint covers %d slides, want %d", st.Slides, want)
			}
			compareRuns(t, reference, killed, resumed, refFinal, resFinal, st.Slides)
		})
	}
}

func TestKillRestoreMidCheckpointWrite(t *testing.T) {
	// The process dies *inside* a checkpoint write: the torn file must
	// not exist (atomic rename never happened), and recovery proceeds
	// from the previous intact checkpoint with full equivalence.
	sim, fixes := testFleet(t, 120, 4)
	reference, refFinal := referenceRun(t, sim, fixes)

	mgr := newTestManager(t, Options{})
	killed := checkpointingRun(t, sim, fixes, mgr, 3, 9, 3)

	// One more slide's worth of state tries to checkpoint and crashes
	// mid-write at varying depths into the file.
	for _, limit := range []int64{0, 5, 21, 100} {
		mgr.store.WrapWriter = func(w io.Writer) io.Writer { return faults.NewCrashWriter(w, limit) }
		if err := mgr.Save(testState(99)); err == nil {
			t.Fatalf("Save with %d-byte crash limit unexpectedly succeeded", limit)
		}
	}
	mgr.store.WrapWriter = nil

	st, resumed, resFinal := resumeRun(t, sim, fixes, mgr, 3)
	if st.Slides != 9 {
		t.Fatalf("restored checkpoint covers %d slides, want the pre-crash 9", st.Slides)
	}
	compareRuns(t, reference, killed, resumed, refFinal, resFinal, st.Slides)
}

func TestSigtermMidReplayDiscardsPartialReplayWhole(t *testing.T) {
	// A restart dies *during* restore-then-replay — SIGTERM while the
	// replayed slides are still in flight, before any new checkpoint.
	// The partial replay must be discarded whole: replay writes nothing
	// durable, so the interrupted attempt leaves the checkpoint dir
	// byte-identical and the next start recovers from the same
	// checkpoint with full equivalence.
	sim, fixes := testFleet(t, 120, 4)
	reference, refFinal := referenceRun(t, sim, fixes)

	const saveEvery, killSlide = 3, 10
	mgr := newTestManager(t, Options{})
	killed := checkpointingRun(t, sim, fixes, mgr, saveEvery, killSlide, 3)
	seqBefore := mgr.LastSeq()
	newest := newestPath(t, mgr)
	rawBefore, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	// First restart: restore, replay a handful of slides, then die.
	var partial []string
	{
		st, err := mgr.RestoreNewest()
		if err != nil || st == nil {
			t.Fatalf("RestoreNewest: (%v, %v)", st, err)
		}
		sys := newPipeline(sim, 3)
		if err := sys.RestoreSnapshot(st.System); err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
		src := feed.NewResumeFilter(stream.NewSliceSource(fixes), st.Cursor)
		batcher := stream.NewBatcherFrom(src, testSlide, st.Query)
		for i := 0; i < 4; i++ {
			b, ok := batcher.Next()
			if !ok {
				t.Fatalf("stream ended %d slides into the replay", i)
			}
			partial = append(partial, renderSlide(sys.ProcessBatch(b)))
		}
		// SIGTERM: no Drain, no checkpoint, the process just stops.
		sys.Close()
	}

	// Nothing durable changed: same newest checkpoint, same bytes, no
	// new sequence numbers, no temp litter.
	m2 := newTestManager(t, Options{Dir: mgr.Dir()})
	if m2.LastSeq() != seqBefore {
		t.Fatalf("aborted replay advanced the checkpoint sequence: %d → %d", seqBefore, m2.LastSeq())
	}
	rawAfter, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawBefore, rawAfter) {
		t.Fatal("aborted replay mutated the newest checkpoint on disk")
	}
	entries, err := os.ReadDir(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), fileSpec.Suffix) {
			t.Errorf("aborted replay left stray file %q", e.Name())
		}
	}

	// Second restart recovers byte-identically: the durable prefix plus
	// the fresh replay reproduce the uninterrupted reference, and the
	// discarded partial slides match their re-replayed counterparts
	// (determinism makes the re-emission identical, so nothing from the
	// interrupted attempt is lost — it is simply recomputed).
	st, resumed, resFinal := resumeRun(t, sim, fixes, m2, 3)
	if st.Slides != killSlide/saveEvery*saveEvery {
		t.Fatalf("second restart restored %d slides, want %d", st.Slides, killSlide/saveEvery*saveEvery)
	}
	for i, p := range partial {
		if i >= len(resumed) {
			t.Fatalf("second replay shorter than the aborted one: %d < %d", len(resumed), len(partial))
		}
		if p != resumed[i] {
			t.Fatalf("replay slide %d not deterministic across restarts:\n  aborted: %s\n  second:  %s", i, p, resumed[i])
		}
	}
	compareRuns(t, reference, killed, resumed, refFinal, resFinal, st.Slides)
}

func TestGatewayExactlyOnceAcrossRestart(t *testing.T) {
	// End-to-end through the serving tier: a subscriber that survives the
	// crash by reconnecting with its last seen sequence number receives
	// every alert exactly once, in order, despite the restored pipeline
	// re-publishing the slides between the checkpoint and the kill.
	sim, fixes := testFleet(t, 120, 4)

	drain := func(sub *serve.Subscriber) []serve.Envelope {
		var out []serve.Envelope
		for {
			env, ok, timedOut := sub.NextTimeout(50 * time.Millisecond)
			if !ok || timedOut {
				return out
			}
			out = append(out, env)
		}
	}
	// sameAlerts compares envelope streams ignoring Published (wall
	// clock) — seq, slide and alert must match exactly.
	sameAlerts := func(a, b []serve.Envelope) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || !a[i].Slide.Equal(b[i].Slide) || a[i].Alert != b[i].Alert {
				return false
			}
		}
		return true
	}

	// Reference: one uninterrupted gateway run.
	var reference []serve.Envelope
	{
		sys := newPipeline(sim, 3)
		gw := serve.New(sys, serve.Options{})
		sub := gw.Hub().Subscribe(serve.Filter{}, 1<<14)
		batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
		for {
			b, ok := batcher.Next()
			if !ok {
				break
			}
			gw.Process(b)
		}
		reference = drain(sub)
		sub.Close()
		sys.Close()
	}
	if len(reference) == 0 {
		t.Fatal("reference run published no alerts")
	}

	// Crashed run: kill at slide 10, checkpoints every 3 slides include
	// the hub state captured under Quiesce.
	const saveEvery, killSlide = 3, 10
	mgr := newTestManager(t, Options{})
	var received []serve.Envelope
	{
		sys := newPipeline(sim, 3)
		gw := serve.New(sys, serve.Options{})
		sub := gw.Hub().Subscribe(serve.Filter{}, 1<<14)
		batcher := stream.NewBatcher(stream.NewSliceSource(fixes), testSlide)
		var cur feed.Cursor
		for slides := 0; slides < killSlide; slides++ {
			b, ok := batcher.Next()
			if !ok {
				t.Fatalf("stream ended before kill slide %d", killSlide)
			}
			rep := gw.Process(b)
			for _, f := range b.Fixes {
				cur.Note(f)
			}
			if (slides+1)%saveEvery == 0 {
				var st *State
				gw.Quiesce(func() {
					snap, err := sys.Snapshot()
					if err != nil {
						t.Errorf("snapshot: %v", err)
						return
					}
					hub := gw.Hub().Snapshot()
					st = &State{Query: rep.Query, System: snap, Cursor: cur.Clone(), Hub: &hub, Slides: slides + 1}
				})
				if st == nil {
					t.Fatal("quiesced snapshot failed")
				}
				if err := mgr.Save(st); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
		received = drain(sub)
		// Crash: the subscriber's connection dies with the process; only
		// its Last-Event-ID survives, client-side.
		sys.Close()
	}
	var lastSeq uint64
	if len(received) > 0 {
		lastSeq = received[len(received)-1].Seq
	}

	// Restart: restore system + hub, re-attach the subscriber at its
	// cursor, replay the rest of the stream.
	st, err := mgr.RestoreNewest()
	if err != nil || st == nil {
		t.Fatalf("RestoreNewest: (%v, %v)", st, err)
	}
	if st.Hub == nil {
		t.Fatal("checkpoint carries no hub state")
	}
	sys2 := newPipeline(sim, 3)
	defer sys2.Close()
	if err := sys2.RestoreSnapshot(st.System); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	gw2 := serve.New(sys2, serve.Options{})
	gw2.Hub().Restore(*st.Hub)
	sub2 := gw2.Hub().SubscribeFrom(serve.Filter{}, 1<<14, lastSeq)
	defer sub2.Close()

	src := feed.NewResumeFilter(stream.NewSliceSource(fixes), st.Cursor)
	batcher := stream.NewBatcherFrom(src, testSlide, st.Query)
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		gw2.Process(b)
	}
	received = append(received, drain(sub2)...)

	// Exactly-once: the concatenation of pre-crash and post-restore
	// deliveries is the reference stream — no duplicates, no gaps, same
	// alerts under the same sequence numbers.
	for i := 1; i < len(received); i++ {
		if received[i].Seq != received[i-1].Seq+1 {
			t.Fatalf("sequence break at %d: %d → %d (duplicate or gap across the restart)",
				i, received[i-1].Seq, received[i].Seq)
		}
	}
	if !sameAlerts(reference, received) {
		t.Fatalf("delivered stream diverges from reference: got %d envelopes, want %d",
			len(received), len(reference))
	}
}

func TestReplayGapReported(t *testing.T) {
	// A checkpoint older than the feed's replayable horizon: the feed can
	// only serve fixes from wipeAfter on, so the slides in between carry
	// no data. The driver-side gap computation must report them.
	sim, fixes := testFleet(t, 80, 3)
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
	if len(tail) == 0 {
		t.Fatal("no fixes beyond the simulated horizon")
	}

	sys := newPipeline(sim, 2)
	defer sys.Close()
	if err := sys.RestoreSnapshot(st.System); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	src := feed.NewResumeFilter(stream.NewSliceSource(tail), st.Cursor)
	batcher := stream.NewBatcherFrom(src, testSlide, st.Query)
	var firstNonEmpty time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		sys.ProcessBatch(b)
		if firstNonEmpty.IsZero() && len(b.Fixes) > 0 {
			firstNonEmpty = b.Query
		}
	}
	gap := ReplayGapSlides(st.Query, firstNonEmpty, testSlide)
	if gap < 2 {
		t.Fatalf("ReplayGapSlides = %d for a 3-slide horizon loss, want ≥ 2", gap)
	}

	// Folded into Health the gap is visible to /healthz and the log line.
	sys.AddHealthSource(func() core.Health { return core.Health{ReplayGapSlides: gap} })
	h := sys.Health()
	if h.ReplayGapSlides != gap {
		t.Errorf("Health.ReplayGapSlides = %d, want %d", h.ReplayGapSlides, gap)
	}
	if !strings.Contains(h.String(), "replay-gap-slides=") {
		t.Errorf("Health.String() %q omits the replay gap", h.String())
	}
}

func TestReplayGapSlidesMath(t *testing.T) {
	base := time.Unix(10000, 0)
	cases := []struct {
		first time.Time
		want  int
	}{
		{time.Time{}, 0},             // nothing replayed at all
		{base.Add(testSlide), 0},     // immediate continuation
		{base.Add(2 * testSlide), 1}, // one empty slide
		{base.Add(5 * testSlide), 4}, // four empty slides
		{base.Add(testSlide / 2), 0}, // sub-slide skew clamps to 0
	}
	for _, tc := range cases {
		if got := ReplayGapSlides(base, tc.first, testSlide); got != tc.want {
			t.Errorf("ReplayGapSlides(%v) = %d, want %d", tc.first, got, tc.want)
		}
	}
}
