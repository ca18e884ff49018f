package main

import (
	"bytes"
	"slices"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// watchdog is cmd/serve's default -watchdog.
const watchdog = 5 * time.Second

// world is the static knowledge cmd/serve rebuilds from its flags.
type world struct {
	vessels []maritime.Vessel
	areas   []maritime.Area
	ports   []mod.PortArea
}

func buildWorld(w workload, seed int64) world {
	v, a, p := core.AdaptWorld(fleetsim.NewSimulator(simConfig(w, seed, time.Hour, false)))
	return world{v, a, p}
}

// sysConfig mirrors cmd/serve's core.Config for the workload's flags.
// production adds what -self-heal and -watchdog add by default; bare
// leaves both off.
func sysConfig(w workload, production bool) core.Config {
	cfg := core.Config{
		Window:      stream.WindowSpec{Range: w.Window, Slide: w.Slide},
		Tracker:     tracker.DefaultParams(),
		Recognition: maritime.Config{Window: w.Window},
	}
	if w.Pairwise {
		cfg.Analytics = &analytics.Config{EnableCollision: true}
	}
	if production {
		cfg.SelfHeal = true
		cfg.WatchdogTimeout = watchdog
	}
	return cfg
}

// batches is a source of window slides: stream.Batcher over a scanner,
// or slides recorded earlier.
type batches interface {
	Next() (stream.Batch, bool)
}

// scanned batches the input's bytes through ais.Scanner and
// stream.Batcher, as cmd/serve does off the feed socket.
func scanned(w workload, in *input) batches {
	return stream.NewBatcher(ais.NewScanner(bytes.NewReader(in.data)), w.Slide)
}

// recorded replays slides an earlier pass kept.
type recorded struct {
	slides []stream.Batch
	i      int
}

func (r *recorded) Next() (stream.Batch, bool) {
	if r.i >= len(r.slides) {
		return stream.Batch{}, false
	}
	r.i++
	return r.slides[r.i-1], true
}

// runSystem sends the slides through core.System.ProcessBatch in this
// process and returns the alerts of every slide with the time spent
// inside ProcessBatch.
func runSystem(w workload, wd world, src batches, production bool) (*reference, time.Duration) {
	sys := core.NewSystem(sysConfig(w, production), wd.vessels, wd.areas, wd.ports)
	defer sys.Close()
	ref := new(reference)
	var busy time.Duration
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		t := time.Now()
		rep := sys.ProcessBatch(b)
		busy += time.Since(t)
		ref.Slides = append(ref.Slides, slideAlerts{Query: rep.Query, Alerts: rep.Alerts})
	}
	return ref, busy
}

// sameAlerts reports whether two references hold the same alerts slide
// by slide, in the same order.
func sameAlerts(a, b *reference) bool {
	return slices.EqualFunc(a.Slides, b.Slides, func(x, y slideAlerts) bool {
		return x.Query.Equal(y.Query) && slices.EqualFunc(x.Alerts, y.Alerts, func(p, q maritime.Alert) bool {
			return keyOf(x.Query, p) == keyOf(y.Query, q)
		})
	})
}
