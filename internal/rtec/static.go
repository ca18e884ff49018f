package rtec

// Statically determined fluents and declarations — the remaining RTEC
// definition forms (Artikis et al., "An Event Calculus for Event
// Recognition"). A statically determined fluent is defined directly by
// interval manipulation over other fluents' maximal intervals
// (union_all, intersect_all, relative_complement_all) instead of
// initiatedAt/terminatedAt rules. Declarations restrict grounding: the
// entities for which a fluent is computed (the paper's footnote 3:
// officials "restrict computation of the maximal intervals of the
// suspicious fluent to these areas ... through the 'declarations'
// facility of RTEC").

// StaticFluentDef defines a statically determined fluent: Compute
// receives the evaluation context (with every earlier definition's
// intervals available) and one declared entity, and returns the
// fluent's maximal intervals for that entity via interval algebra.
// Like a rule's Map, Compute and EntitiesOf are evaluated again only
// when what they read through the Ctx changes; between evaluations the
// intervals are clipped to the moving window.
type StaticFluentDef struct {
	Name string
	// Entities lists the declared groundings. When nil, EntitiesOf is
	// consulted instead.
	Entities []string
	// EntitiesOf derives the groundings from the window contents (e.g.
	// every vessel with events this window). Ignored when Entities is
	// set.
	EntitiesOf func(ctx *Ctx) []string
	// Compute returns the maximal intervals of fluent=true for the
	// entity. Returned intervals are clipped to the window.
	Compute func(ctx *Ctx, entity string) IntervalList
}

// DefineStaticFluent registers a statically determined fluent. Static
// fluents are evaluated after input fluents and derived events, in
// registration order, interleaved with simple fluents in one combined
// definition order.
func (e *Engine) DefineStaticFluent(def StaticFluentDef) {
	e.builtins, e.builtinTriggered = nil, 0
	e.defs = append(e.defs, &definition{name: def.Name, static: &def})
}

// Declare limits a previously registered simple fluent to the given
// entities: initiations and terminations mapped to undeclared entities
// are dropped. Declaring an unknown fluent is a no-op, matching RTEC's
// permissive declarations.
func (e *Engine) Declare(fluent string, entities []string) {
	if e.declared == nil {
		e.declared = make(map[string]map[string]bool)
	}
	set := make(map[string]bool, len(entities))
	for _, ent := range entities {
		set[ent] = true
	}
	e.declared[fluent] = set
}

// declaredOK reports whether the entity passes the fluent's
// declaration (fluents without declarations accept everything).
func (e *Engine) declaredOK(fluent, entity string) bool {
	set, ok := e.declared[fluent]
	if !ok {
		return true
	}
	return set[entity]
}
