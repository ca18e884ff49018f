package rtec

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// compareFluentKey orders fluent instances lexicographically.
func compareFluentKey(a, b FluentKey) int {
	if c := cmp.Compare(a.Fluent, b.Fluent); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Entity, b.Entity); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// fromScratch is the oracle of the incremental engine: a fresh engine
// with the same event description that derives everything at once from
// e's working memory at e's last query time — Restore's rescan, the
// whole-window evaluation every query step used to run.
func fromScratch(build func() *Engine, e *Engine) *Engine {
	scratch := build()
	scratch.Restore(e.Snapshot())
	return scratch
}

// withBuiltins extends the oracle test's description with a statically
// determined fluent over the window's groundings and a fluent triggered
// by built-in start/end events, the forms that read event lists.
func withBuiltins(window Timepoint, theta float64) *Engine {
	e := ecEngine(window, theta)
	e.DefineStaticFluent(StaticFluentDef{
		Name: "both",
		EntitiesOf: func(ctx *Ctx) []string {
			var out []string
			for _, ev := range ctx.EventsNamed("begin") {
				out = append(out, ev.Entity)
			}
			return out
		},
		Compute: func(ctx *Ctx, x string) IntervalList {
			return Intersect(ctx.IntervalsOf("busy", x, True), ctx.IntervalsOf("stopped", x, True))
		},
	})
	identity := func(_ *Ctx, ev Event) []string { return []string{ev.Entity} }
	e.DefineSimpleFluent(SimpleFluentDef{
		Name: "lit",
		Init: map[string][]TriggerRule{True: {{Event: "start:stopped", Map: identity}}},
		Term: map[string][]TriggerRule{True: {{Event: "end:both", Map: identity}}},
	})
	return e
}

// sameState compares what two engines derived: every instance, belief
// function and derived occurrence.
func sameState(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	if g, w := got.Fluents(), want.Fluents(); !reflect.DeepEqual(g, w) {
		for _, k := range keysOf(g, w) {
			if !reflect.DeepEqual(g[k], w[k]) {
				t.Errorf("%s: %v = %v, from scratch %v", what, k, g[k], w[k])
			}
		}
		t.FailNow()
	}
	if !reflect.DeepEqual(got.beliefs, want.beliefs) {
		t.Fatalf("%s: belief functions differ\n got %v\nwant %v", what, got.beliefs, want.beliefs)
	}
	if !slices.Equal(got.derived, want.derived) {
		t.Fatalf("%s: derived %v, from scratch %v", what, got.derived, want.derived)
	}
}

// TestIncrementalMatchesFromScratch drives the incremental engine over
// random streams and, after every query step, holds what it carried and
// derived to a from-scratch evaluation of the same working memory — with
// rules that read other fluents and derived events (answers evaluated
// again when their reads change), with built-in events and a static
// fluent (instances clipped at every step), crisp and probabilistic, at
// ω = β too. In mid-stream the engine is replaced twice: by one restored
// from its snapshot, and by one restored from an older snapshot that
// replays the slides since, as a rewind after a fault does.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for _, tc := range []struct {
		name         string
		window, step Timepoint
		theta        float64
		builtins     bool
	}{
		{"rules", 250, 100, 0, false},
		{"rules-probabilistic", 250, 100, 0.5, false},
		{"rules-tumbling", 100, 100, 0, false},
		{"builtins", 250, 100, 0, true},
		{"builtins-probabilistic", 250, 100, 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Engine {
				if tc.builtins {
					return withBuiltins(tc.window, tc.theta)
				}
				return ecEngine(tc.window, tc.theta)
			}
			seeds := []int64{time.Now().UnixNano()}
			for s := int64(1); s <= 8; s++ {
				seeds = append(seeds, s)
			}
			held := 0
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				e := build()
				restoreAt, replayAt := 2+rng.Intn(10), 6+rng.Intn(10)
				var base EngineSnapshot
				var journal [][]Event
				var queries []Timepoint
				for k, q := 1, tc.step; k <= 18; k, q = k+1, q+tc.step {
					if k%4 == 1 {
						base, journal, queries = e.Snapshot(), nil, nil
					}
					in := ecStream(rng, q, tc.step)
					journal, queries = append(journal, in), append(queries, q)
					e.Advance(q, in)
					what := fmt.Sprintf("seed %d q %d", seed, q)
					switch k {
					case restoreAt:
						e = fromScratch(build, e)
						what += " (restored)"
					case replayAt:
						healed := build()
						healed.Restore(base)
						for i, batch := range journal {
							healed.Advance(queries[i], batch)
						}
						sameState(t, what+" (healed against live)", healed, e)
						e = healed
					}
					sameState(t, what, e, fromScratch(build, e))
				}
				held += len(e.Fluents())
			}
			if held == 0 {
				t.Fatal("no instance ever held: the streams exercise nothing")
			}
		})
	}
}
