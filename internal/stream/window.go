// Package stream provides the data-stream machinery of the surveillance
// system: sliding-window specifications with range ω and slide β
// (paper §2), batching of a timestamped positional stream into slide
// intervals, replay at inflated arrival rates for stress tests, and
// deterministic out-of-order delivery simulation for the
// delayed-message experiments.
package stream

import (
	"errors"
	"fmt"
	"time"
)

// WindowSpec is a sliding window with range ω and slide step β. The
// window abstracts the recent time period of interest: at each query
// time Q it covers (Q-ω, Q] and moves forward every β (paper §2, §4.2).
type WindowSpec struct {
	Range time.Duration // ω
	Slide time.Duration // β
}

// Errors returned by Validate.
var (
	ErrNonPositiveRange = errors.New("stream: window range must be positive")
	ErrNonPositiveSlide = errors.New("stream: window slide must be positive")
)

// Validate checks the specification. The paper notes that typically
// β ≤ ω so that successive window instantiations share tuples; larger
// slides are legal (they produce disjoint windows) so Validate only
// rejects non-positive values.
func (w WindowSpec) Validate() error {
	if w.Range <= 0 {
		return ErrNonPositiveRange
	}
	if w.Slide <= 0 {
		return ErrNonPositiveSlide
	}
	return nil
}

// String renders the spec as "ω=…/β=…".
func (w WindowSpec) String() string {
	return fmt.Sprintf("ω=%v/β=%v", w.Range, w.Slide)
}

// Instance is one window instantiation: the interval (Query-ω, Query]
// evaluated at query time Query.
type Instance struct {
	Query time.Time
	Spec  WindowSpec
}

// Start returns the exclusive lower bound Query-ω of the instance.
func (in Instance) Start() time.Time { return in.Query.Add(-in.Spec.Range) }

// Covers reports whether timestamp t falls inside the window interval
// (Query-ω, Query].
func (in Instance) Covers(t time.Time) bool {
	return t.After(in.Start()) && !t.After(in.Query)
}

// Next returns the next instantiation, β later.
func (in Instance) Next() Instance {
	return Instance{Query: in.Query.Add(in.Spec.Slide), Spec: in.Spec}
}
