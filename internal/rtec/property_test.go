package rtec

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomEvents builds a random stream of begin/finish/toRed/toGreen
// events over a few entities within [1, span].
func randomEvents(rng *rand.Rand, n int, span Timepoint) []Event {
	names := []string{"begin", "finish", "toRed", "toGreen"}
	entities := []string{"a", "b", "c"}
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			Name:   names[rng.Intn(len(names))],
			Entity: entities[rng.Intn(len(entities))],
			Time:   1 + Timepoint(rng.Intn(int(span))),
		}
	}
	return out
}

// buildEngine registers one boolean and one multi-valued fluent.
func buildEngine(window Timepoint) *Engine {
	e := NewEngine(window)
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	e.DefineSimpleFluent(boolFluent("busy", "begin", "finish"))
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "light",
		Init: map[string][]TriggerRule{
			"red":   {{Event: "toRed", Map: identity}},
			"green": {{Event: "toGreen", Map: identity}},
		},
	})
	return e
}

func TestPropertyFluentsHaveOneValueAtATime(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := buildEngine(10000)
		res := e.Advance(5000, randomEvents(rng, 60, 4000))
		for tp := Timepoint(1); tp <= 4200; tp += 13 {
			for _, entity := range []string{"a", "b", "c"} {
				red := res.Fluents()[FluentKey{"light", entity, "red"}].HoldsAt(tp)
				green := res.Fluents()[FluentKey{"light", entity, "green"}].HoldsAt(tp)
				if red && green {
					t.Fatalf("seed %d: light(%s) is both red and green at %d", seed, entity, tp)
				}
			}
		}
	}
}

func TestPropertyIntervalsAreMaximalAndDisjoint(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := buildEngine(10000)
		res := e.Advance(5000, randomEvents(rng, 80, 4000))
		for key, ivs := range res.Fluents() {
			for i := 0; i < len(ivs); i++ {
				if ivs[i].Until <= ivs[i].Since {
					t.Fatalf("seed %d: %v has empty interval %v", seed, key, ivs[i])
				}
				if i > 0 && ivs[i].Since < ivs[i-1].Until {
					t.Fatalf("seed %d: %v intervals overlap: %v then %v",
						seed, key, ivs[i-1], ivs[i])
				}
				if i > 0 && ivs[i].Since == ivs[i-1].Until {
					t.Fatalf("seed %d: %v intervals adjacent (not maximal): %v then %v",
						seed, key, ivs[i-1], ivs[i])
				}
			}
		}
	}
}

func TestPropertyDeliveryOrderIrrelevantWithinWindow(t *testing.T) {
	// Within one window, the recognition outcome must not depend on the
	// order events are delivered in, nor on how they are batched across
	// query steps (as long as nothing falls out of the window).
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, 50, 3000)

		oneShot := buildEngine(100000)
		want := oneShot.Advance(5000, events).Fluents()

		shuffled := append([]Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		incremental := buildEngine(100000)
		// Deliver in three arbitrary chunks at increasing query times.
		incremental.Advance(4000, shuffled[:len(shuffled)/3])
		incremental.Advance(4500, shuffled[len(shuffled)/3:2*len(shuffled)/3])
		got := incremental.Advance(5000, shuffled[2*len(shuffled)/3:]).Fluents()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: incremental shuffled delivery diverged\n got: %v\nwant: %v",
				seed, got, want)
		}
	}
}

func TestPropertyWindowedSubsetOfUnbounded(t *testing.T) {
	// Everything a windowed engine derives must also be derivable by an
	// unbounded one from the same events (forgetting only loses, never
	// invents — modulo intervals clipped at the window edge).
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, 60, 4000)

		windowed := buildEngine(1500)
		w := windowed.Advance(5000, events).Fluents()
		unbounded := buildEngine(1 << 40)
		u := unbounded.Advance(5000, events).Fluents()

		for key, ivs := range w {
			for _, iv := range ivs {
				if iv.Since <= 5000-1500 {
					continue // clipped at the window edge; shape differs
				}
				probe := iv.Since + 1
				if !u[key].HoldsAt(probe) {
					t.Fatalf("seed %d: windowed derived %v at %d but unbounded did not",
						seed, key, probe)
				}
			}
		}
	}
}
