package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ais"
	"repro/internal/feed"
	"repro/internal/stream"
)

// Health is the pipeline's degradation snapshot: how often the ingest
// path had to reconnect, what was dropped and why, and whether the
// recognition watchdog had to abandon the wedged recognizer. It is
// surfaced per slide through SlideReport and at session end by the live
// drivers, so an operator can tell "clean run" from "survived faults"
// without grepping logs.
type Health struct {
	// Reconnects and Resumes count the feed client's recoveries.
	Reconnects int
	Resumes    int
	// DialAttempts, DialFailures and Disconnects expose the transport
	// life of the reconnecting feed client, so /healthz reports the
	// whole ingest path rather than just its losses.
	DialAttempts int
	DialFailures int
	Disconnects  int
	// ResumeDupes counts duplicate fixes discarded while catching up
	// after a resume. Deliberate dedupe, not loss — so it is kept out
	// of DropsByCause, which accounts only messages that went missing.
	ResumeDupes int
	// DropsByCause accounts every discarded message by reason, merging
	// the Data Scanner's cleaning counters with transport and
	// degradation drops ("overflow", "watchdog").
	DropsByCause map[string]int
	// IngestOverflow is the ingest stage's overflow count (also present
	// in DropsByCause under "overflow").
	IngestOverflow int
	// WatchdogTrips counts slides where a pipeline stage exceeded its
	// budget and was abandoned (recognition watchdog plus tracker shard
	// stalls); RecognizerDown is 1 while the recognizer is out of service
	// (wedged, quarantined or fenced), else 0.
	WatchdogTrips  int
	RecognizerDown int
	// Fault counters. PanicsRecovered counts panics converted into
	// quarantines instead of crashes; Quarantined is how many targets
	// (tracker shards, the recognizer, the store) are out of service
	// right now, until a checkpoint restore replaces them; Restores counts
	// restores that replaced down targets (rewinds); Failed is how many
	// targets are fenced for good — they faulted again while their first
	// fault was being replayed.
	PanicsRecovered int
	Quarantined     int
	Restores        int
	Failed          int
	// Degradation ladder state (Config.Degrade): the current rung (0 =
	// full pipeline) and how many transitions the ladder has made.
	DegradationLevel       int
	DegradationTransitions int
	// Late-fix accounting: out-of-order fixes that could still be
	// sequenced into their vessel's trajectory vs fixes behind their
	// vessel's clock that had to be discarded.
	LateFixesAccepted int
	LateFixesDropped  int
	// ReplayGapSlides counts window slides lost to replay: slides
	// between a restored checkpoint and the first fix the feed could
	// actually replay. It reports how much of the stream was
	// unrecoverable instead of silently closing the gap.
	ReplayGapSlides int
	// Cross-vessel analytics tier accounting (Config.Analytics):
	// vessel states evicted after going stale and pairwise alerts
	// emitted.
	AnalyticsEvicted    int
	AnalyticsPairAlerts int
}

// Merge returns the element-wise combination of two snapshots.
func (h Health) Merge(o Health) Health {
	out := h
	out.Reconnects += o.Reconnects
	out.Resumes += o.Resumes
	out.DialAttempts += o.DialAttempts
	out.DialFailures += o.DialFailures
	out.Disconnects += o.Disconnects
	out.ResumeDupes += o.ResumeDupes
	out.IngestOverflow += o.IngestOverflow
	out.WatchdogTrips += o.WatchdogTrips
	out.RecognizerDown += o.RecognizerDown
	out.PanicsRecovered += o.PanicsRecovered
	out.Quarantined += o.Quarantined
	out.Restores += o.Restores
	out.Failed += o.Failed
	out.DegradationLevel = max(out.DegradationLevel, o.DegradationLevel)
	out.DegradationTransitions += o.DegradationTransitions
	out.LateFixesAccepted += o.LateFixesAccepted
	out.LateFixesDropped += o.LateFixesDropped
	out.ReplayGapSlides += o.ReplayGapSlides
	out.AnalyticsEvicted += o.AnalyticsEvicted
	out.AnalyticsPairAlerts += o.AnalyticsPairAlerts
	if len(o.DropsByCause) > 0 {
		if out.DropsByCause == nil {
			out.DropsByCause = make(map[string]int, len(o.DropsByCause))
		} else {
			merged := make(map[string]int, len(out.DropsByCause)+len(o.DropsByCause))
			for k, v := range out.DropsByCause {
				merged[k] = v
			}
			out.DropsByCause = merged
		}
		for k, v := range o.DropsByCause {
			out.DropsByCause[k] += v
		}
	}
	return out
}

// TotalDropped sums every accounted drop.
func (h Health) TotalDropped() int {
	n := 0
	for _, v := range h.DropsByCause {
		n += v
	}
	return n
}

// State classifies the snapshot for operators: "ok"; "degraded" when
// the system is running but below full fidelity (targets quarantined —
// rewinding to a checkpoint, or without checkpoints out of service until
// a restart — or the overload ladder active); "wedged" when a target is
// fenced for good and needs operator action (restart, or a checkpoint
// restore).
func (h Health) State() string {
	switch {
	case h.Failed > 0:
		return "wedged"
	case h.Quarantined > 0 || h.DegradationLevel > 0 || h.RecognizerDown > 0:
		return "degraded"
	}
	return "ok"
}

// String renders a compact one-line summary for logs.
func (h Health) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state=%s reconnects=%d resumes=%d watchdog=%d recognizer-down=%d",
		h.State(), h.Reconnects, h.Resumes, h.WatchdogTrips, h.RecognizerDown)
	if h.PanicsRecovered > 0 || h.Quarantined > 0 || h.Restores > 0 || h.Failed > 0 {
		fmt.Fprintf(&b, " panics=%d quarantined=%d restores=%d failed=%d",
			h.PanicsRecovered, h.Quarantined, h.Restores, h.Failed)
	}
	if h.DegradationLevel > 0 || h.DegradationTransitions > 0 {
		fmt.Fprintf(&b, " degrade=L%d(transitions %d)",
			h.DegradationLevel, h.DegradationTransitions)
	}
	if h.LateFixesAccepted > 0 || h.LateFixesDropped > 0 {
		fmt.Fprintf(&b, " late=%d(dropped %d)", h.LateFixesAccepted, h.LateFixesDropped)
	}
	if h.DialAttempts > 0 || h.Disconnects > 0 {
		fmt.Fprintf(&b, " dials=%d(fail %d) disconnects=%d",
			h.DialAttempts, h.DialFailures, h.Disconnects)
	}
	if h.ResumeDupes > 0 {
		fmt.Fprintf(&b, " resume-dupes=%d", h.ResumeDupes)
	}
	if h.ReplayGapSlides > 0 {
		fmt.Fprintf(&b, " replay-gap-slides=%d", h.ReplayGapSlides)
	}
	if h.AnalyticsPairAlerts > 0 || h.AnalyticsEvicted > 0 {
		fmt.Fprintf(&b, " analytics=pairs:%d(evicted %d)",
			h.AnalyticsPairAlerts, h.AnalyticsEvicted)
	}
	if len(h.DropsByCause) > 0 {
		causes := make([]string, 0, len(h.DropsByCause))
		for k := range h.DropsByCause {
			causes = append(causes, k)
		}
		sort.Strings(causes)
		b.WriteString(" drops[")
		for i, k := range causes {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", k, h.DropsByCause[k])
		}
		b.WriteByte(']')
	}
	return b.String()
}

// ScannerHealth folds the Data Scanner's cleaning counters into a
// Health snapshot's drop accounting.
func ScannerHealth(st ais.ScannerStats) Health {
	drops := make(map[string]int, 5)
	add := func(cause string, n int) {
		if n > 0 {
			drops[cause] = n
		}
	}
	add("checksum", st.BadChecksum)
	add("malformed", st.Malformed)
	add("unsupported", st.Unsupported)
	add("no-position", st.NoPosition)
	add("fragment-loss", st.FragmentLoss)
	return Health{DropsByCause: drops}
}

// LiveHealthSource adapts the standard live ingest chain — a
// reconnecting feed client and, when the driver has one, the ingest
// stage reading it — into a Health source for AddHealthSource, so every
// driver accounts losses the same way.
func LiveHealthSource(c *feed.ReconnectingClient, stage *stream.IngestStage) func() Health {
	return func() Health {
		h := ScannerHealth(c.Stats())
		ns := c.NetStats()
		h.Reconnects = ns.Reconnects
		h.Resumes = ns.Resumes
		h.DialAttempts = ns.DialAttempts
		h.DialFailures = ns.DialFailures
		h.Disconnects = ns.Disconnects
		h.ResumeDupes = ns.ResumeSkipped
		if stage != nil {
			if d := stage.Dropped(); d > 0 {
				h.IngestOverflow = d
				if h.DropsByCause == nil {
					h.DropsByCause = make(map[string]int, 1)
				}
				h.DropsByCause["overflow"] += d
			}
		}
		return h
	}
}

// AddHealthSource registers a callback contributing ingest-side
// counters (feed client, ingest stage) to the system's Health
// snapshots; drivers wire their transport layer in through this. It is
// safe to call while Health is being scraped.
func (s *System) AddHealthSource(fn func() Health) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	var srcs []func() Health
	if old := s.healthSources.Load(); old != nil {
		srcs = append(srcs, *old...)
	}
	srcs = append(srcs, fn)
	s.healthSources.Store(&srcs)
}

// Health merges the system's own degradation counters with every
// registered source. It reads only atomics and the sources' own
// synchronized snapshots, so it is safe to call from any goroutine
// (HTTP health and metrics scrapes) while the pipeline is mid-slide.
func (s *System) Health() Health {
	h := Health{
		WatchdogTrips:   int(s.watchdogTrips.Load()),
		RecognizerDown:  s.recognizerDown(),
		PanicsRecovered: int(s.panicsRecovered.Load()),
		Restores:        int(s.restores.Load()),
	}
	quar, failed := s.downCounts()
	ts := s.tracker.FaultStats()
	h.PanicsRecovered += ts.Panics
	h.WatchdogTrips += ts.Stalls
	h.Quarantined = quar + ts.Quarantined
	h.Failed = failed + ts.Failed
	if s.degrader != nil {
		h.DegradationLevel = s.degrader.Level()
		h.DegradationTransitions = int(s.degrader.transitions.Load())
	}
	acc, drop := s.tracker.LateFixes()
	h.LateFixesAccepted, h.LateFixesDropped = int(acc), int(drop)
	if s.analytics != nil {
		as := s.analytics.Stats()
		h.AnalyticsEvicted = int(as.Evicted)
		h.AnalyticsPairAlerts = int(as.PairAlerts)
	}
	drops := make(map[string]int, 4)
	if lost := s.watchdogLostEvents.Load(); lost > 0 {
		drops["watchdog"] = int(lost)
	}
	if n := ts.DroppedFixes + int(s.faultFixes.Load()); n > 0 {
		drops["shard-down"] = n
	}
	if shed := s.tracker.ShedFixes(); shed > 0 {
		drops["shed-stationary"] = int(shed)
	}
	if dd := s.degradedDrops.Load(); dd > 0 {
		drops["degraded"] = int(dd)
	}
	if len(drops) > 0 {
		h.DropsByCause = drops
	}
	if srcs := s.healthSources.Load(); srcs != nil {
		for _, fn := range *srcs {
			h = h.Merge(fn())
		}
	}
	return h
}

func (s *System) recognizerDown() int {
	if s.recDown.Load() != partUp {
		return 1
	}
	return 0
}

// downCounts tallies the recognizer's and store's down-states:
// quarantined vs fenced for good. Safe under concurrent
// scrapes — it reads only atomics.
func (s *System) downCounts() (quar, failed int) {
	tally := func(d int32) {
		switch d {
		case partStalled, partPanicked:
			quar++
		case partFailed:
			failed++
		}
	}
	tally(s.recDown.Load())
	tally(s.storeDown.Load())
	return quar, failed
}
