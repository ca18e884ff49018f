package serve

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/maritime"
)

// Filter selects which alerts a subscriber receives. A nil set means
// "match any". Note that durative area-level CEs (suspicious,
// illegalFishing) carry no triggering vessel, so an MMSI filter
// excludes them by design — subscribe by area or CE type to follow
// those.
type Filter struct {
	MMSI  map[uint32]struct{}
	CEs   map[string]struct{}
	Areas map[string]struct{}
}

// Match reports whether the alert passes the filter. A pairwise alert
// (rendezvous, darkRendezvous, collisionCourse) matches an MMSI filter
// through either of its two vessels.
func (f Filter) Match(a maritime.Alert) bool {
	if f.MMSI != nil {
		_, ok := f.MMSI[a.Vessel]
		if !ok && a.Vessel2 != 0 {
			_, ok = f.MMSI[a.Vessel2]
		}
		if !ok {
			return false
		}
	}
	if f.CEs != nil {
		if _, ok := f.CEs[a.CE]; !ok {
			return false
		}
	}
	if f.Areas != nil {
		if _, ok := f.Areas[a.AreaID]; !ok {
			return false
		}
	}
	return true
}

// ParseFilter builds a filter from URL query parameters: comma-separated
// "mmsi", "ce" and "area" lists (absent or empty = match any), e.g.
// /events?mmsi=237000101,237000102&ce=illegalShipping.
func ParseFilter(q url.Values) (Filter, error) {
	var f Filter
	if set := splitSet(q.Get("mmsi")); set != nil {
		f.MMSI = make(map[uint32]struct{}, len(set))
		for tok := range set {
			v, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				return Filter{}, fmt.Errorf("serve: bad mmsi %q: %w", tok, err)
			}
			f.MMSI[uint32(v)] = struct{}{}
		}
	}
	if set := splitSet(q.Get("ce")); set != nil {
		for ce := range set {
			switch ce {
			case maritime.CESuspicious, maritime.CEIllegalFishing,
				maritime.CEIllegalShipping, maritime.CEDangerousShipping,
				maritime.CERendezvous, maritime.CEDarkRendezvous,
				maritime.CECollisionCourse:
			default:
				return Filter{}, fmt.Errorf("serve: unknown ce %q", ce)
			}
		}
		f.CEs = set
	}
	f.Areas = splitSet(q.Get("area"))
	return f, nil
}

// splitSet parses a comma-separated list into a set; nil when empty.
func splitSet(raw string) map[string]struct{} {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return nil
	}
	set := make(map[string]struct{})
	for _, tok := range strings.Split(raw, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			set[tok] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil
	}
	return set
}
