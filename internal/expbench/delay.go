package expbench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/maritime"
	"repro/internal/rtec"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// DelayRow quantifies the paper's Figure 5 / §4.2 trade-off: with
// delayed ME arrival, a longer window range ω loses fewer events (an
// ME arriving after its occurrence has fallen out of (Q-ω, Q] is
// discarded) but recognition costs more per query.
type DelayRow struct {
	Window     time.Duration // ω
	EventsIn   int           // MEs admitted into working memory
	EventsLost int           // MEs discarded as too late
	LossPct    float64
	MeanStep   time.Duration // mean recognition time per query
	MeanCEs    int           // mean CE instances recognized per step
}

// DelayExperiment replays the workload's movement events with a
// deterministic transport delay (a fraction of MEs delayed by up to
// maxDelay) and sweeps the window range. The paper's shape: increasing
// ω reduces information loss but decreases recognition efficiency
// ("To reduce the possibility of losing information, one may increase
// the window range ω. But doing so decreases recognition efficiency").
func DelayExperiment(wl *Workload, maxDelay time.Duration, fraction float64) []DelayRow {
	// Movement events of the whole run, produced in order.
	spec := stream.WindowSpec{Range: 2 * time.Hour, Slide: time.Hour}
	tr := tracker.NewSharded(tracker.DefaultParams(), spec, 1)
	batcher := stream.NewBatcher(stream.NewSliceSource(wl.Fixes), spec.Slide)
	var all []rtec.Event
	var queries []time.Time
	for {
		b, ok := batcher.Next()
		if !ok {
			break
		}
		all = append(all, maritime.MEStream(tr.Slide(b).Fresh)...)
		queries = append(queries, b.Query)
	}

	// Deterministic delays: every k-th event arrives late, the delay
	// cycling over (0, maxDelay].
	type arrival struct {
		ev rtec.Event
		at int64 // unix seconds of arrival
	}
	k := int(1 / fraction)
	if k < 1 {
		k = 1
	}
	arrivals := make([]arrival, len(all))
	for i, ev := range all {
		at := ev.Time
		if i%k == 0 {
			at += int64(maxDelay/time.Second) * int64(1+i%7) / 7
		}
		arrivals[i] = arrival{ev: ev, at: at}
	}
	// Delivery follows arrival time: delayed messages overtake nothing,
	// they just show up late.
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

	var rows []DelayRow
	for _, h := range []int{1, 2, 6, 9} {
		omega := time.Duration(h) * time.Hour
		rec := maritime.NewRecognizer(maritime.Config{Window: omega}, wl.Vessels, wl.Areas)
		var total time.Duration
		var ces, steps int
		cursor := 0
		for _, q := range queries {
			// Deliver everything that has *arrived* by q, in arrival
			// order (which may be out of occurrence order).
			var batch []rtec.Event
			for cursor < len(arrivals) && arrivals[cursor].at <= q.Unix() {
				batch = append(batch, arrivals[cursor].ev)
				cursor++
			}
			t0 := time.Now()
			snap := rec.Advance(q, batch, nil)
			total += time.Since(t0)
			ces += snap.Recognized
			steps++
		}
		st := rec.Engine().Stats()
		row := DelayRow{
			Window:     omega,
			EventsIn:   st.EventsIn,
			EventsLost: st.EventsLate,
			MeanCEs:    ces / max(1, steps),
		}
		if st.EventsIn+st.EventsLate > 0 {
			row.LossPct = float64(st.EventsLate) / float64(st.EventsIn+st.EventsLate) * 100
		}
		if steps > 0 {
			row.MeanStep = total / time.Duration(steps)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteDelay renders the rows.
func WriteDelay(w io.Writer, rows []DelayRow) {
	fmt.Fprintln(w, "Delayed-arrival experiment (§4.2) — window range vs information loss")
	fmt.Fprintf(w, "%-8s %10s %10s %8s %8s %14s\n",
		"ω", "admitted", "lost", "loss%", "CEs", "mean/query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10d %10d %7.1f%% %8d %14s\n",
			r.Window, r.EventsIn, r.EventsLost, r.LossPct, r.MeanCEs,
			r.MeanStep.Round(time.Microsecond))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
