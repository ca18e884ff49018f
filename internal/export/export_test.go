package export

import (
	"encoding/json"
	"encoding/xml"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

func samplePoints() []tracker.CriticalPoint {
	t0 := time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC)
	return []tracker.CriticalPoint{
		{MMSI: 237000001, Pos: geo.Point{Lon: 24.0, Lat: 37.5}, Time: t0, Type: tracker.EventFirst},
		{MMSI: 237000001, Pos: geo.Point{Lon: 24.1, Lat: 37.6}, Time: t0.Add(10 * time.Minute),
			Type: tracker.EventTurn, SpeedKn: 12.5, HeadingDeg: 45},
		{MMSI: 237000002, Pos: geo.Point{Lon: 25.0, Lat: 36.5}, Time: t0.Add(time.Minute),
			Type: tracker.EventStopEnd, Duration: 30 * time.Minute},
	}
}

func TestWriteKMLWellFormed(t *testing.T) {
	var sb strings.Builder
	if err := WriteKML(&sb, "test", samplePoints()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var doc kmlRoot
	if err := xml.Unmarshal([]byte(out[strings.Index(out, "<kml"):]), &doc); err != nil {
		t.Fatalf("output is not well-formed XML: %v", err)
	}
	// Two vessels: 2 polylines + 3 placemark points.
	if got := len(doc.Document.Placemarks); got != 5 {
		t.Errorf("placemarks = %d, want 5", got)
	}
	if !strings.Contains(out, "trajectory 237000001") {
		t.Error("missing trajectory polyline for vessel 1")
	}
	if !strings.Contains(out, "duration=30m0s") {
		t.Error("stop duration not described")
	}
}

func TestWriteKMLDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := WriteKML(&a, "x", samplePoints()); err != nil {
		t.Fatal(err)
	}
	if err := WriteKML(&b, "x", samplePoints()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("KML output not deterministic across runs")
	}
}

func TestWriteGeoJSONValid(t *testing.T) {
	var sb strings.Builder
	if err := WriteGeoJSON(&sb, samplePoints()); err != nil {
		t.Fatal(err)
	}
	var fc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &fc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if fc["type"] != "FeatureCollection" {
		t.Errorf("type = %v", fc["type"])
	}
	features := fc["features"].([]any)
	if len(features) != 5 {
		t.Errorf("features = %d, want 5", len(features))
	}
	// The turn point must carry its annotations.
	found := false
	for _, f := range features {
		props := f.(map[string]any)["properties"].(map[string]any)
		if props["event"] == "turn" {
			found = true
			if props["speedKnots"].(float64) != 12.5 {
				t.Errorf("turn speed = %v", props["speedKnots"])
			}
		}
	}
	if !found {
		t.Error("turn feature missing")
	}
}

func TestWriteGeoJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteGeoJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"features": []`) {
		t.Errorf("empty collection rendered as %q", sb.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, samplePoints()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "mmsi,event,") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "turn") {
		t.Errorf("row 2 = %q", lines[2])
	}
	if !strings.HasSuffix(lines[3], "1800") {
		t.Errorf("stop row duration: %q", lines[3])
	}
}
