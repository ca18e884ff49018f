package rtec

import (
	"math"
	"reflect"
	"testing"
)

func wp(t Timepoint, p float64) WeightedPoint { return WeightedPoint{Time: t, P: p} }

func TestEvolveProbabilityCrispMatchesEngine(t *testing.T) {
	// With probability-1 occurrences, Prob-EC degenerates to crisp RTEC:
	// init@10, term@25 → holds exactly on (10, 25].
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 1)},
		[]WeightedPoint{wp(25, 1)},
		0,
	)
	got := ThresholdIntervals(steps, 0.5)
	if !reflect.DeepEqual(got, IntervalList{iv(10, 25)}) {
		t.Errorf("crisp thresholding = %v, want [(10,25]]", got)
	}
	if ProbAt(steps, 10) != 0 {
		t.Error("initiation point itself must be exclusive")
	}
	if ProbAt(steps, 11) != 1 || ProbAt(steps, 25) != 1 {
		t.Error("belief inside the interval must be 1")
	}
	if ProbAt(steps, 26) != 0 {
		t.Error("belief after termination must be 0")
	}
}

func TestEvolveProbabilityAccumulatesNoisyInitiations(t *testing.T) {
	// Three 0.5-confidence initiations: belief climbs 0.5 → 0.75 → 0.875.
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 0.5), wp(20, 0.5), wp(30, 0.5)},
		nil, 0,
	)
	checks := []struct {
		t Timepoint
		p float64
	}{{15, 0.5}, {25, 0.75}, {35, 0.875}}
	for _, c := range checks {
		if got := ProbAt(steps, c.t); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", c.t, got, c.p)
		}
	}
	// A 0.8 threshold is crossed only by the third initiation.
	got := ThresholdIntervals(steps, 0.8)
	if len(got) != 1 || got[0].Since != 30 || !got[0].Open() {
		t.Errorf("thresholded = %v, want open from 30", got)
	}
}

func TestEvolveProbabilityDecaysWithUncertainTermination(t *testing.T) {
	// A certain initiation followed by two 0.6-confidence terminations:
	// belief decays 1 → 0.4 → 0.16.
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 1)},
		[]WeightedPoint{wp(20, 0.6), wp(30, 0.6)},
		0,
	)
	if got := ProbAt(steps, 25); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P(25) = %v, want 0.4", got)
	}
	if got := ProbAt(steps, 35); math.Abs(got-0.16) > 1e-12 {
		t.Errorf("P(35) = %v, want 0.16", got)
	}
	// With θ=0.5 the CE interval ends at the first uncertain termination.
	got := ThresholdIntervals(steps, 0.5)
	if !reflect.DeepEqual(got, IntervalList{iv(10, 20)}) {
		t.Errorf("thresholded = %v, want [(10,20]]", got)
	}
}

func TestEvolveProbabilityCoTimedTermThenInit(t *testing.T) {
	// An occurrence that both terminates and re-initiates at T leaves
	// the fluent holding (termination applies first).
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 1), wp(20, 1)},
		[]WeightedPoint{wp(20, 1)},
		0,
	)
	if got := ProbAt(steps, 21); got != 1 {
		t.Errorf("P(21) = %v, want 1 (re-initiated)", got)
	}
}

func TestEvolveProbabilityPrior(t *testing.T) {
	// A fluent believed half-on at the window start decays under a
	// certain termination and nothing else.
	steps := EvolveProbability(nil, []WeightedPoint{wp(10, 1)}, 0.5)
	if got := ProbAt(steps, 5); got != 0.5 {
		t.Errorf("P(5) = %v, want the prior", got)
	}
	if got := ProbAt(steps, 15); got != 0 {
		t.Errorf("P(15) = %v, want 0", got)
	}
}

func TestEvolveProbabilityClampsInputs(t *testing.T) {
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 2.5)}, // clamped to 1
		[]WeightedPoint{wp(20, -3)},  // clamped to 0
		-1,                           // clamped to 0
	)
	if got := ProbAt(steps, 15); got != 1 {
		t.Errorf("P(15) = %v", got)
	}
	if got := ProbAt(steps, 25); got != 1 {
		t.Errorf("P(25) = %v (a 0-probability termination must not decay)", got)
	}
}

func TestThresholdIntervalsMergesAdjacentSteps(t *testing.T) {
	// Steps with different probabilities above the threshold merge into
	// one maximal interval.
	steps := EvolveProbability(
		[]WeightedPoint{wp(10, 0.9), wp(20, 0.9)},
		nil, 0,
	)
	got := ThresholdIntervals(steps, 0.8)
	if len(got) != 1 || got[0].Since != 10 {
		t.Errorf("thresholded = %v, want one interval from 10", got)
	}
}

func TestProbAtOutsideSteps(t *testing.T) {
	if ProbAt(nil, 5) != 0 {
		t.Error("empty belief function must read 0")
	}
}

func TestEngineProbabilisticMode(t *testing.T) {
	e := NewEngine(10000)
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.SetProbabilistic(0.7)
	res := e.Advance(5000, []Event{
		{Name: "begin", Entity: "v", Time: 10, P: 0.5}, // belief 0.5 < θ
		{Name: "begin", Entity: "v", Time: 20, P: 0.5}, // belief 0.75 ≥ θ
		{Name: "finish", Entity: "v", Time: 40, P: 1},  // belief 0
	})
	key := FluentKey{"busy", "v", True}
	got := res.Fluents()[key]
	if !reflect.DeepEqual(got, IntervalList{iv(20, 40)}) {
		t.Errorf("probabilistic intervals = %v, want [(20,40]]", got)
	}
	belief := e.BeliefOf(key)
	if belief == nil {
		t.Fatal("no belief function stored")
	}
	if p := ProbAt(belief, 15); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("belief at 15 = %v, want 0.5", p)
	}
	if p := ProbAt(belief, 25); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("belief at 25 = %v, want 0.75", p)
	}
}

func TestEngineProbabilisticCertainEventsMatchCrisp(t *testing.T) {
	// Certain events in probabilistic mode reproduce crisp recognition.
	events := []Event{
		{Name: "begin", Entity: "v", Time: 10},
		{Name: "finish", Entity: "v", Time: 30},
		{Name: "begin", Entity: "v", Time: 50},
	}
	crisp := NewEngine(10000)
	crisp.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	want := crisp.Advance(5000, events).Fluents()

	prob := NewEngine(10000)
	prob.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	prob.SetProbabilistic(0.5)
	got := prob.Advance(5000, events).Fluents()

	if !reflect.DeepEqual(got, want) {
		t.Errorf("probabilistic with certain events diverged:\n got %v\nwant %v", got, want)
	}
}

func TestEngineProbabilisticLeavesMultiValuedCrisp(t *testing.T) {
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	e := NewEngine(10000)
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "light",
		Init: map[string][]TriggerRule{
			"red":   {{Event: "toRed", Map: identity}},
			"green": {{Event: "toGreen", Map: identity}},
		},
	})
	e.SetProbabilistic(0.9)
	res := e.Advance(5000, []Event{
		{Name: "toRed", Entity: "x", Time: 10, P: 0.3}, // confidence ignored crisply
		{Name: "toGreen", Entity: "x", Time: 30},
	})
	red := res.Fluents()[FluentKey{"light", "x", "red"}]
	if !reflect.DeepEqual(red, IntervalList{iv(10, 30)}) {
		t.Errorf("multi-valued fluent not crisp in prob mode: %v", red)
	}
}
