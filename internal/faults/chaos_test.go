package faults_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// fixKey identifies a fix at wire granularity (the NMEA line carries a
// whole-second timestamp).
type fixKey struct {
	mmsi uint32
	sec  int64
}

func keyOf(f ais.Fix) fixKey { return fixKey{mmsi: f.MMSI, sec: f.Time.Unix()} }

// recordingStage captures every fix the ingest stage hands the
// pipeline: what got past the client and the stage's drop policy.
type recordingStage struct {
	*stream.IngestStage
	fixes []ais.Fix
}

func (r *recordingStage) Next() (stream.Batch, bool) {
	b, ok := r.IngestStage.Next()
	r.fixes = append(r.fixes, b.Fixes...)
	return b, ok
}

func chaosSystemConfig() core.Config {
	return core.Config{
		Window:  stream.WindowSpec{Range: time.Hour, Slide: 10 * time.Minute},
		Tracker: tracker.DefaultParams(),
		Recognition: maritime.Config{
			Window: time.Hour,
		},
	}
}

func flattenAlerts(reports []core.SlideReport) []string {
	var out []string
	for _, r := range reports {
		for _, a := range r.Alerts {
			out = append(out, a.String())
		}
	}
	return out
}

// parseFeedLines decodes timestamped NMEA lines (as the feed server
// emits them) back into fixes.
func parseFeedLines(t *testing.T, lines []string) []ais.Fix {
	t.Helper()
	if len(lines) == 0 {
		return nil
	}
	sc := ais.NewScanner(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	var fixes []ais.Fix
	for sc.Scan() {
		fixes = append(fixes, sc.Fix())
	}
	if len(fixes) != len(lines) {
		t.Fatalf("parsed %d fixes from %d recorded fault lines", len(fixes), len(lines))
	}
	return fixes
}

// TestChaosEndToEnd replays a fleet-simulator stream through the fault
// proxy (seeded connection resets with mid-line truncation, plus
// periodic byte corruption) into a reconnecting client feeding the full
// surveillance pipeline, and checks the three fault-tolerance
// guarantees: exactly-once resume, alert equivalence modulo verifiably
// destroyed fixes, and complete loss accounting in Health.
func TestChaosEndToEnd(t *testing.T) {
	sim := fleetsim.NewSimulator(func() fleetsim.Config {
		cfg := fleetsim.DefaultConfig()
		cfg.Vessels = 120
		cfg.Duration = 3 * time.Hour
		return cfg
	}())
	fixes := sim.Run()
	if len(fixes) < 4000 {
		t.Fatalf("simulator produced only %d fixes; the fault plan needs a longer stream", len(fixes))
	}
	vessels, areas, ports := core.AdaptWorld(sim)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &feed.Server{Source: feed.NewReplay(fixes), HandshakeWait: feed.DefaultHandshakeWait}
	srvAddr := make(chan net.Addr, 1)
	go srv.ListenAndServe(ctx, "127.0.0.1:0", srvAddr)
	upstream := (<-srvAddr).String()

	policy := feed.DefaultRetryPolicy()
	policy.InitialBackoff = 5 * time.Millisecond
	policy.MaxBackoff = 50 * time.Millisecond
	policy.Seed = 11

	// Fault-free reference pass: same wire encoding, no proxy.
	cleanClient, err := feed.DialReconnecting(upstream, policy)
	if err != nil {
		t.Fatal(err)
	}
	cleanFixes, err := stream.Collect(cleanClient)
	cleanClient.Close()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if len(cleanFixes) != len(fixes) {
		t.Fatalf("clean run delivered %d of %d fixes", len(cleanFixes), len(fixes))
	}

	// Chaos pass: two seeded resets (each truncating the line in
	// flight) and one corrupted line per 97.
	proxy := &faults.Proxy{
		Upstream: upstream,
		Plan: faults.Plan{
			Seed:            42,
			ResetAfterLines: []int{450, 1200},
			TruncateOnReset: true,
			CorruptEvery:    97,
		},
	}
	proxyAddr := make(chan net.Addr, 1)
	go proxy.ListenAndServe(ctx, "127.0.0.1:0", proxyAddr)

	client, err := feed.DialReconnecting((<-proxyAddr).String(), policy)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stage := stream.NewIngestStage(stream.NewBatcher(client, 10*time.Minute), len(fixes)+16)
	defer stage.Close()
	rec := &recordingStage{IngestStage: stage}

	sys := core.NewSystem(chaosSystemConfig(), vessels, areas, ports)
	sys.AddHealthSource(core.LiveHealthSource(client, stage))
	reports := sys.RunAll(rec)
	if err := stage.Err(); err != nil {
		t.Fatalf("chaos run ended with error: %v", err)
	}
	delivered := rec.fixes

	ns := client.NetStats()
	ps := proxy.Stats()
	if ps.Resets != 2 || ps.TruncatedLines != 2 {
		t.Fatalf("proxy stats = %+v, want 2 resets with 2 truncations", ps)
	}
	if ps.CorruptedLines == 0 {
		t.Fatal("the fault plan corrupted no lines")
	}
	// (a) The client reconnected once per reset and resumed each time.
	if ns.Reconnects != 2 || ns.Resumes != 2 {
		t.Errorf("net stats = %+v, want 2 reconnects / 2 resumes", ns)
	}
	if srv.Stats().Resumes != 2 {
		t.Errorf("server honored %d resumes, want 2", srv.Stats().Resumes)
	}
	if !client.Stats().Reconciles() {
		t.Errorf("scanner stats do not reconcile: %+v", client.Stats())
	}

	// (a) Exactly-once: the delivered stream must be an in-order
	// subsequence of the fault-free stream — no duplicates from the
	// resume replay, no reordering, nothing invented.
	j := 0
	var missing []ais.Fix
	for _, f := range cleanFixes {
		if j < len(delivered) && delivered[j].MMSI == f.MMSI &&
			delivered[j].Time.Equal(f.Time) && delivered[j].Pos == f.Pos {
			j++
			continue
		}
		missing = append(missing, f)
	}
	if j != len(delivered) {
		t.Fatalf("chaos run delivered %d fixes that are not an in-order subsequence of the clean run (duplicate or reordered delivery)",
			len(delivered)-j)
	}
	if len(missing) == 0 {
		t.Fatal("no fixes were lost: the fault plan did not bite")
	}

	// (b) Every missing fix maps to a line the proxy verifiably
	// destroyed (corrupted lines fail the NMEA checksum and are never
	// replayed, because the resume cursor has moved past them).
	destroyed := parseFeedLines(t, proxy.CorruptedLines())
	destCount := make(map[fixKey]int, len(destroyed))
	for _, f := range destroyed {
		destCount[keyOf(f)]++
	}
	for _, f := range missing {
		k := keyOf(f)
		if destCount[k] == 0 {
			t.Errorf("fix MMSI %d at %v lost without a destroying fault", f.MMSI, f.Time)
			continue
		}
		destCount[k]--
	}
	// Truncated lines are the recoverable kind: the resume replays
	// them, so their fixes must have arrived — unless the replayed line
	// was itself the one in 97 the plan corrupts (where the replay falls
	// in that cadence depends on how far the client had read when the
	// reset hit).
	delivCount := make(map[fixKey]int, len(delivered))
	for _, f := range delivered {
		delivCount[keyOf(f)]++
	}
	replayDestroyed := make(map[fixKey]bool, len(destroyed))
	for _, f := range destroyed {
		replayDestroyed[keyOf(f)] = true
	}
	for _, f := range parseFeedLines(t, proxy.TruncatedLines()) {
		if delivCount[keyOf(f)] == 0 && !replayDestroyed[keyOf(f)] {
			t.Errorf("truncated fix MMSI %d at %v was not recovered by the resume", f.MMSI, f.Time)
		}
	}

	// (b) Alerts must match a fault-free run over the surviving fixes:
	// replay clean-minus-missing through an identically configured
	// system and compare alert-for-alert.
	missingCount := make(map[fixKey]int, len(missing))
	for _, f := range missing {
		missingCount[keyOf(f)]++
	}
	var survivors []ais.Fix
	for _, f := range cleanFixes {
		if k := keyOf(f); missingCount[k] > 0 {
			missingCount[k]--
			continue
		}
		survivors = append(survivors, f)
	}
	ref := core.NewSystem(chaosSystemConfig(), vessels, areas, ports)
	refReports := ref.RunAll(stream.NewBatcher(stream.NewSliceSource(survivors), 10*time.Minute))
	want, got := flattenAlerts(refReports), flattenAlerts(reports)
	if len(want) == 0 {
		t.Fatal("reference run raised no alerts; the comparison is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("chaos run raised %d alerts, reference run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d diverged:\nchaos:     %s\nreference: %s", i, got[i], want[i])
		}
	}

	// (c) Health accounts every lost message: each of the missing fixes
	// was dropped by the Data Scanner (the corrupted line reached the
	// client and failed validation there), and nothing else was lost.
	h := sys.Health()
	if h.Reconnects != 2 || h.Resumes != 2 {
		t.Errorf("health transport counters = %+v, want 2/2", h)
	}
	if h.IngestOverflow != 0 {
		t.Errorf("ingest overflow = %d with ample capacity", h.IngestOverflow)
	}
	scannerDrops := client.Stats().Dropped()
	if scannerDrops != h.TotalDropped() {
		t.Errorf("health drops = %d, scanner counted %d", h.TotalDropped(), scannerDrops)
	}
	if scannerDrops < len(missing) {
		t.Errorf("scanner accounted %d drops for %d missing fixes: losses escaped the books",
			scannerDrops, len(missing))
	}
	// Every drop is attributable: corrupted lines plus the (at most
	// one per reset) truncated half-lines the scanner saw.
	if max := ps.CorruptedLines + ps.TruncatedLines; scannerDrops > max {
		t.Errorf("scanner dropped %d lines, but the proxy only injured %d", scannerDrops, max)
	}
	if last := reports[len(reports)-1].Health; last.Reconnects != 2 {
		t.Errorf("per-slide health snapshot lost the reconnect count: %+v", last)
	}
}
