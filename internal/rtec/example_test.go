package rtec_test

import (
	"fmt"

	"repro/internal/rtec"
)

// Example reproduces the paper's §4.1 semantics walkthrough: a fluent
// initiated at 10 and 20 and terminated at 25 and 30 holds at all T
// with 10 < T ≤ 25; start(F) occurs at 10 only and end(F) at 25 only.
func Example() {
	engine := rtec.NewEngine(1000)
	identity := func(_ *rtec.Ctx, ev rtec.Event) []string { return []string{ev.Entity} }
	engine.DefineSimpleFluent(rtec.SimpleFluentDef{
		Name: "f",
		Init: map[string][]rtec.TriggerRule{rtec.True: {{Event: "init", Map: identity}}},
		Term: map[string][]rtec.TriggerRule{rtec.True: {{Event: "term", Map: identity}}},
	})

	res := engine.Advance(100, []rtec.Event{
		{Name: "init", Entity: "x", Time: 10},
		{Name: "init", Entity: "x", Time: 20},
		{Name: "term", Entity: "x", Time: 25},
		{Name: "term", Entity: "x", Time: 30},
	})

	key := rtec.FluentKey{Fluent: "f", Entity: "x", Value: rtec.True}
	fmt.Println("holdsFor:", res.Fluents()[key])
	fmt.Println("holdsAt(10):", engine.HoldsAt(key, 10))
	fmt.Println("holdsAt(25):", engine.HoldsAt(key, 25))
	fmt.Println("holdsAt(26):", engine.HoldsAt(key, 26))
	// Output:
	// holdsFor: [(10, 25]]
	// holdsAt(10): false
	// holdsAt(25): true
	// holdsAt(26): false
}

// ExampleEvolveProbability shows probabilistic inertia: three
// half-confident initiations accumulate belief, which a threshold
// turns into a crisp interval.
func ExampleEvolveProbability() {
	steps := rtec.EvolveProbability(
		[]rtec.WeightedPoint{{Time: 10, P: 0.5}, {Time: 20, P: 0.5}, {Time: 30, P: 0.5}},
		nil, 0,
	)
	fmt.Printf("belief at 15: %.3f\n", rtec.ProbAt(steps, 15))
	fmt.Printf("belief at 25: %.3f\n", rtec.ProbAt(steps, 25))
	fmt.Printf("belief at 35: %.3f\n", rtec.ProbAt(steps, 35))
	fmt.Println("holds (θ=0.8):", rtec.ThresholdIntervals(steps, 0.8))
	// Output:
	// belief at 15: 0.500
	// belief at 25: 0.750
	// belief at 35: 0.875
	// holds (θ=0.8): [(30, ∞)]
}
