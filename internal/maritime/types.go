// Package maritime implements the paper's complex event definitions for
// maritime surveillance (§4.1) on top of the RTEC engine: the
// suspicious-area, illegal-fishing, illegal-shipping and
// dangerous-shipping CEs, the static vessel and area knowledge they
// consult (fishing designations, drafts, protected / forbidden-fishing
// / shallow polygons), the close/3 Haversine proximity predicate (with
// an optional grid index), conversion of the tracker's critical points
// into the RTEC movement-event stream, the precomputed spatial-facts
// mode of the paper's Figure 11(b), and the east/west partitioning used
// for the two-processor experiments.
package maritime

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/rtec"
	"repro/internal/tracker"
)

// AreaKind classifies areas of interest.
type AreaKind int

// Area kinds. KindWatch marks areas officials monitor for suspicious
// loitering (the paper restricts the computation of the suspicious
// fluent to such areas through RTEC's declarations facility).
const (
	KindProtected AreaKind = iota
	KindForbiddenFishing
	KindShallow
	KindWatch
	numKinds
)

// String names the kind.
func (k AreaKind) String() string {
	return []string{"protected", "forbidden-fishing", "shallow", "watch"}[k]
}

// Area is one static area of interest.
type Area struct {
	ID        string
	Kind      AreaKind
	Poly      *geo.Polygon
	MinDepthM float64 // water depth, meaningful for KindShallow
}

// Vessel is the static description the CE definitions consult: the
// paper's fishing and draft facts (§5.2: "For each vessel we added
// information about its draft, while a number of vessels were
// designated as fishing vessels").
type Vessel struct {
	MMSI    uint32
	Fishing bool
	DraftM  float64
}

// Entity returns the RTEC entity string of the vessel.
func (v Vessel) Entity() string { return strconv.FormatUint(uint64(v.MMSI), 10) }

// Shallow implements the paper's shallow(Area, Vessel) atemporal
// predicate: whether the area's waters are too shallow for the vessel,
// given its draft and a safety margin of one meter of clearance.
func Shallow(a *Area, v Vessel) bool {
	return a.Kind == KindShallow && v.DraftM+1 >= a.MinDepthM
}

// Movement-event names of the RTEC input stream (paper §5.2: "The input
// of RTEC consists of the MEs gap, lowSpeed, stopped, speedChange and
// turn, as well as the coordinates of each vessel at the time of ME
// detection").
const (
	METurn        = "turn"
	MESpeedChange = "speedChange"
	MEGap         = "gap" // occurs when the communication gap starts
	MEGapEnd      = "gapEnd"
	MEStopStart   = "stopStart" // demarcates stopped(Vessel)=true
	MEStopEnd     = "stopEnd"
	MESlowStart   = "slowStart" // demarcates lowSpeed(Vessel)=true
	MESlowEnd     = "slowEnd"
	MESlowMotion  = "slowMotion" // instantaneous: vessel moving 'too' slowly
)

// Complex event names.
const (
	CESuspicious        = "suspicious"
	CEIllegalFishing    = "illegalFishing"
	CEIllegalShipping   = "illegalShipping"
	CEDangerousShipping = "dangerousShipping"
)

// Pairwise complex event names, recognized by the cross-vessel
// analytics tier over the shared proximity index rather than by RTEC
// rules: the rendezvous/dark-activity patterns of Pitsikalis et al.
const (
	// CERendezvous: two vessels slow/stopped within a distance threshold,
	// sustained over several slides, away from port areas.
	CERendezvous = "rendezvous"
	// CEDarkRendezvous: two vessels with overlapping AIS gaps whose gap
	// endpoints converge at plausible implied speeds — a candidate
	// ship-to-ship transfer carried out dark.
	CEDarkRendezvous = "darkRendezvous"
	// CECollisionCourse: a pair predicted by CPA screening to pass
	// dangerously close within the look-ahead horizon.
	CECollisionCourse = "collisionCourse"
)

// MEStream converts tracker critical points into the RTEC movement
// event stream. Every event carries the vessel coordinates at detection
// time (the paper's coord fluent). EventFirst anchors contribute no ME.
func MEStream(points []tracker.CriticalPoint) []rtec.Event {
	return MEStreamInto(make([]rtec.Event, 0, len(points)), points)
}

// MEStreamInto is MEStream appending into a caller-owned slice, for hot
// paths that recycle the event buffer across slides. The caller must not
// hand dst to a consumer that outlives the slide.
func MEStreamInto(dst []rtec.Event, points []tracker.CriticalPoint) []rtec.Event {
	out := dst
	for _, cp := range points {
		name := ""
		switch cp.Type {
		case tracker.EventTurn, tracker.EventSmoothTurn:
			name = METurn
		case tracker.EventSpeedChange:
			name = MESpeedChange
		case tracker.EventGapStart:
			name = MEGap
		case tracker.EventGapEnd:
			name = MEGapEnd
		case tracker.EventStopStart:
			name = MEStopStart
		case tracker.EventStopEnd:
			name = MEStopEnd
		case tracker.EventSlowStart:
			name = MESlowStart
		case tracker.EventSlowEnd:
			name = MESlowEnd
		default:
			continue
		}
		ev := rtec.Event{
			Name:   name,
			Entity: strconv.FormatUint(uint64(cp.MMSI), 10),
			Time:   cp.Time.Unix(),
			Lon:    cp.Pos.Lon,
			Lat:    cp.Pos.Lat,
			P:      cp.Confidence, // zero reads as certain downstream
		}
		out = append(out, ev)
		// A slow-motion episode also yields the instantaneous slowMotion
		// ME the fishing and shallow-water rules trigger on.
		if cp.Type == tracker.EventSlowStart {
			out = append(out, rtec.Event{
				Name: MESlowMotion, Entity: ev.Entity, Time: ev.Time,
				Lon: ev.Lon, Lat: ev.Lat, P: ev.P,
			})
		}
	}
	return out
}

// Alert is one recognized complex event pushed to the marine
// authorities: either an instantaneous occurrence (illegalShipping,
// dangerousShipping) or the start of a durative one (suspicious,
// illegalFishing).
type Alert struct {
	CE     string
	AreaID string
	Time   time.Time
	// Vessel is the triggering vessel for instantaneous CEs, 0 for
	// durative area-level CEs.
	Vessel uint32
	// Vessel2 is the second vessel of a pairwise CE (rendezvous,
	// darkRendezvous, collisionCourse), with Vessel < Vessel2; 0 for
	// single-vessel and area-level CEs. omitempty keeps the JSON of
	// every existing alert kind byte-identical.
	Vessel2 uint32 `json:"Vessel2,omitempty"`
}

// String renders the alert.
func (a Alert) String() string {
	if a.Vessel2 != 0 {
		return fmt.Sprintf("%s between vessels %d and %d (%s)", a.CE,
			a.Vessel, a.Vessel2, a.Time.UTC().Format(time.RFC3339))
	}
	if a.Vessel != 0 {
		return fmt.Sprintf("%s at %s by vessel %d (%s)", a.CE, a.AreaID, a.Vessel,
			a.Time.UTC().Format(time.RFC3339))
	}
	return fmt.Sprintf("%s at %s (%s)", a.CE, a.AreaID, a.Time.UTC().Format(time.RFC3339))
}

// CompareAlerts is the canonical alert ordering — time, then CE name,
// then area — used both inside the recognizer and when merging the
// alert streams of parallel recognizers. It is a concrete comparator
// for slices.SortFunc, keeping reflection-based sorting off the
// per-slide path.
func CompareAlerts(a, b Alert) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if a.CE != b.CE {
		if a.CE < b.CE {
			return -1
		}
		return 1
	}
	if a.AreaID != b.AreaID {
		if a.AreaID < b.AreaID {
			return -1
		}
		return 1
	}
	return 0
}
