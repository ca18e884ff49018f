package tracker

import (
	"time"

	"repro/internal/geo"
)

// VesselInfo is a point-in-time public summary of one tracked vessel's
// motion state — the "current per-vessel state" snapshot the serving
// tier exposes. It is a copy: callers may retain it freely.
type VesselInfo struct {
	MMSI     uint32    `json:"mmsi"`
	LastPos  geo.Point `json:"last_pos"`
	LastSeen time.Time `json:"last_seen"`
	// SpeedKn and HeadingDeg are the velocity implied by the two most
	// recent accepted fixes; zero when fewer than two fixes have arrived.
	SpeedKn    float64 `json:"speed_kn"`
	HeadingDeg float64 `json:"heading_deg"`
	// Odometer readings in meters (total, and since last departure).
	OdometerM       float64 `json:"odometer_m"`
	SinceDepartureM float64 `json:"since_departure_m"`
	// Episode flags of the ongoing long-lasting events.
	Stopped bool `json:"stopped"`
	Slow    bool `json:"slow"`
	GapOpen bool `json:"gap_open"`
	// SynopsisLen is the number of critical points currently retained in
	// the window for this vessel.
	SynopsisLen int `json:"synopsis_len"`
}

// infoOf builds the public summary from live state.
func infoOf(st *vesselState) VesselInfo {
	info := VesselInfo{
		MMSI:            st.mmsi,
		OdometerM:       st.odometerM,
		SinceDepartureM: st.departureM,
		Stopped:         st.stopped,
		Slow:            st.slow,
		GapOpen:         st.gapOpen,
		SynopsisLen:     st.synopsis.len(),
	}
	if st.haveLast {
		info.LastPos = st.lastPos
		info.LastSeen = nsTime(st.lastTNS)
	}
	if st.haveV {
		info.SpeedKn = st.vPrev.SpeedKnots
		info.HeadingDeg = st.vPrev.HeadingDeg
	}
	return info
}
