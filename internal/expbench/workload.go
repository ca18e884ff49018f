// Package expbench is the experiment harness reproducing every table
// and figure of the paper's evaluation (§5): workload construction over
// the fleet simulator, parameter sweeps, per-stage timing, and runners
// that print the same rows and series the paper reports. Absolute
// numbers differ from the paper's hardware; the harness is about
// reproducing the shapes — linear growth of tracking cost in the slide
// step, ~94% compression, RMSE sensitivity to Δθ, the dominance of
// tracking in maintenance cost, and the parallel and spatial-facts
// speedups of CE recognition.
package expbench

import (
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/fleetsim"
	"repro/internal/maritime"
	"repro/internal/mod"
)

// Scale sizes the experiments. The paper's dataset (N = 6425 vessels,
// three months) is impractical for a test-suite run; each scale keeps
// the workload shape while trading volume for runtime.
type Scale struct {
	Name     string
	Vessels  int
	Seed     int64
	Short    time.Duration // runs for the small-window experiments
	Long     time.Duration // runs for ω up to 24 h (Figures 6(b), 10, Table 4)
	Fig7Reps int           // stream replication cap for the arrival-rate stress test
}

// Predefined scales.
var (
	// ScaleCI keeps the full suite under a couple of minutes.
	ScaleCI = Scale{Name: "ci", Vessels: 250, Seed: 1, Short: 7 * time.Hour, Long: 27 * time.Hour, Fig7Reps: 60}
	// ScaleDefault is the maritime experiments default.
	ScaleDefault = Scale{Name: "default", Vessels: 1000, Seed: 1, Short: 10 * time.Hour, Long: 28 * time.Hour, Fig7Reps: 20}
	// ScalePaper matches the paper's fleet size.
	ScalePaper = Scale{Name: "paper", Vessels: 6425, Seed: 1, Short: 12 * time.Hour, Long: 30 * time.Hour, Fig7Reps: 4}
)

// Workload is one simulated dataset plus the static world adapted for
// the pipeline.
type Workload struct {
	Sim     *fleetsim.Simulator
	Fixes   []ais.Fix
	Vessels []maritime.Vessel
	Areas   []maritime.Area
	Ports   []mod.PortArea
	Start   time.Time
	End     time.Time
}

// BuildWorkload simulates a dataset of the given fleet size and
// duration.
func BuildWorkload(vessels int, duration time.Duration, seed int64) *Workload {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = duration
	cfg.Seed = seed
	return BuildWorkloadFrom(cfg)
}

// BuildWorkloadFrom simulates the dataset of an arbitrary simulator
// configuration (e.g. more areas of interest than the paper's 35).
func BuildWorkloadFrom(cfg fleetsim.Config) *Workload {
	sim := fleetsim.NewSimulator(cfg)
	w := &Workload{Sim: sim, Fixes: sim.Run(), Start: cfg.Start, End: cfg.Start.Add(cfg.Duration)}
	w.Vessels, w.Areas, w.Ports = core.AdaptWorld(sim)
	return w
}

// BuildNoisyWorkload simulates a dataset with an aggressive noise
// profile — frequent, large off-course outliers — for the
// outlier-filter ablation, where the default trace's rare outliers
// wash out of fleet-level RMSE.
func BuildNoisyWorkload(vessels int, duration time.Duration, seed int64) *Workload {
	cfg := fleetsim.DefaultConfig()
	cfg.Vessels = vessels
	cfg.Duration = duration
	cfg.Seed = seed
	cfg.Noise.OutlierProb = 0.03
	cfg.Noise.OutlierMeters = 2500
	sim := fleetsim.NewSimulator(cfg)
	w := &Workload{Sim: sim, Fixes: sim.Run(), Start: cfg.Start, End: cfg.Start.Add(cfg.Duration)}
	w.Vessels, w.Areas, w.Ports = core.AdaptWorld(sim)
	return w
}

// shortWorkload and longWorkload build (and the caller may cache) the
// two dataset sizes of a scale.
func (s Scale) shortWorkload() *Workload { return BuildWorkload(s.Vessels, s.Short, s.Seed) }
func (s Scale) longWorkload() *Workload  { return BuildWorkload(s.Vessels, s.Long, s.Seed) }

// Replicate concatenates k MMSI-shifted copies of the stream, keeping
// timestamps: the fleet grows k-fold, multiplying the arrival rate for
// the paper's Figure 7 stress test without changing motion dynamics.
func Replicate(fixes []ais.Fix, k int) []ais.Fix {
	if k <= 1 {
		return fixes
	}
	out := make([]ais.Fix, 0, len(fixes)*k)
	for _, f := range fixes {
		for r := 0; r < k; r++ {
			g := f
			g.MMSI += uint32(r) * 10_000_000
			out = append(out, g)
		}
	}
	return out
}

// Workloads caches the two dataset sizes so the figure runners share
// them within one invocation.
type Workloads struct {
	Scale Scale
	short *Workload
	long  *Workload
}

// NewWorkloads returns a lazy cache for the scale.
func NewWorkloads(s Scale) *Workloads { return &Workloads{Scale: s} }

// Short returns (building on first use) the short-duration workload.
func (w *Workloads) Short() *Workload {
	if w.short == nil {
		w.short = w.Scale.shortWorkload()
	}
	return w.short
}

// Long returns (building on first use) the long-duration workload.
func (w *Workloads) Long() *Workload {
	if w.long == nil {
		w.long = w.Scale.longWorkload()
	}
	return w.long
}
