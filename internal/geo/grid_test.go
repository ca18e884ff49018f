package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// squareAt returns a square polygon of the given half-side (degrees)
// centered at c.
func squareAt(c Point, half float64) *Polygon {
	return MustPolygon([]Point{
		{c.Lon - half, c.Lat - half},
		{c.Lon + half, c.Lat - half},
		{c.Lon + half, c.Lat + half},
		{c.Lon - half, c.Lat + half},
	})
}

func TestAreaIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var polys []*Polygon
	for i := 0; i < 35; i++ {
		c := Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
		polys = append(polys, squareAt(c, 0.02+rng.Float64()*0.08))
	}
	const threshold = 3000 // meters
	idx := NewAreaIndex(polys, threshold, 0.25)
	if idx.Fallback() {
		t.Fatal("index unexpectedly degenerated to linear scan")
	}

	for trial := 0; trial < 2000; trial++ {
		p := Point{Lon: 19 + rng.Float64()*10, Lat: 33 + rng.Float64()*8}
		got := idx.CloseTo(p, threshold)
		var want []int32
		for i, pg := range polys {
			if pg.DistanceMeters(p) <= threshold {
				want = append(want, int32(i))
			}
		}
		if !equalInt32(got, want) {
			t.Fatalf("CloseTo(%v) = %v, linear scan = %v", p, got, want)
		}
	}
}

func TestAreaIndexContainedIn(t *testing.T) {
	a := squareAt(Point{23, 37}, 0.1)
	b := squareAt(Point{23.05, 37.05}, 0.1) // overlaps a
	c := squareAt(Point{25, 39}, 0.1)       // far away
	idx := NewAreaIndex([]*Polygon{a, b, c}, 1000, 0.1)

	got := idx.ContainedIn(Point{23.04, 37.04}) // inside both a and b
	if !equalInt32(got, []int32{0, 1}) {
		t.Errorf("ContainedIn = %v, want [0 1]", got)
	}
	if got := idx.ContainedIn(Point{10, 10}); got != nil {
		t.Errorf("far point ContainedIn = %v, want nil", got)
	}
}

func TestAreaIndexEmpty(t *testing.T) {
	idx := NewAreaIndex(nil, 1000, 0.1)
	if got := idx.CloseTo(Point{0, 0}, 1000); got != nil {
		t.Errorf("empty index CloseTo = %v, want nil", got)
	}
	if idx.Len() != 0 {
		t.Errorf("Len = %d, want 0", idx.Len())
	}
}

func TestAreaIndexFallbackStillCorrect(t *testing.T) {
	polys := []*Polygon{squareAt(Point{23, 37}, 0.1)}
	// cellDeg=0 forces the fallback path.
	idx := NewAreaIndex(polys, 1000, 0)
	if !idx.Fallback() {
		t.Fatal("expected fallback")
	}
	if got := idx.CloseTo(Point{23, 37}, 1000); !equalInt32(got, []int32{0}) {
		t.Errorf("fallback CloseTo = %v, want [0]", got)
	}
}

func TestAreaIndexNeverMissesWithinThreshold(t *testing.T) {
	// Probe points just inside/outside the threshold ring of one area.
	pg := squareAt(Point{24, 38}, 0.05)
	idx := NewAreaIndex([]*Polygon{pg}, 2000, 0.05)
	edgeMid := Point{24, 38 + 0.05} // midpoint of the top edge
	for _, d := range []float64{10, 500, 1500, 1999} {
		p := Destination(edgeMid, 0, d) // due north of the edge
		if got := idx.CloseTo(p, 2000); len(got) != 1 {
			t.Errorf("point %.0f m away not found (got %v)", d, got)
		}
	}
	far := Destination(edgeMid, 0, 5000)
	if got := idx.CloseTo(far, 2000); got != nil {
		t.Errorf("point 5 km away reported close: %v", got)
	}

	// Wide-latitude regression: a region spanning the equator to ~69°N.
	// Longitude degrees at 69°N are 2.8× shorter than at the equator, so
	// padding with the region-center latitude's cosine (the old bug)
	// leaves the poleward polygon's east/west approaches under-padded
	// and the probe below lands outside the grid bounds — a miss.
	wide := []*Polygon{
		squareAt(Point{24, 0.5}, 0.05),
		squareAt(Point{24, 69}, 0.05),
	}
	widx := NewAreaIndex(wide, 2000, 0.5)
	if widx.Fallback() {
		t.Fatal("wide-latitude index unexpectedly degenerated to linear scan")
	}
	westEdge := Point{Lon: 24 - 0.05, Lat: 69} // midpoint of the west edge
	for _, d := range []float64{100, 1000, 1900} {
		p := Destination(westEdge, 270, d) // due west of the polygon
		if got := widx.CloseTo(p, 2000); !equalInt32(got, []int32{1}) {
			t.Errorf("high-latitude point %.0f m west not found (got %v)", d, got)
		}
	}
	if got := widx.CloseTo(Destination(westEdge, 270, 6000), 2000); got != nil {
		t.Errorf("high-latitude point 6 km west reported close: %v", got)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAreaIndexCloseTo(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var polys []*Polygon
	for i := 0; i < 35; i++ {
		c := Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
		polys = append(polys, squareAt(c, 0.05))
	}
	idx := NewAreaIndex(polys, 3000, 0.25)
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CloseTo(pts[i%len(pts)], 3000)
	}
}

func BenchmarkHaversine(b *testing.B) {
	p1 := Point{23.6467, 37.9421}
	p2 := Point{25.1442, 35.3387}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Haversine(p1, p2)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}

func TestPointIndexMatchesLinearScan(t *testing.T) {
	// Random points across a band reaching high latitude, where the
	// per-row longitude span matters; Near must agree with a brute-force
	// Haversine sweep at every radius.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		idx := NewPointIndex(0.05)
		var pts []Point
		for i := 0; i < 300; i++ {
			p := Point{Lon: 20 + rng.Float64()*6, Lat: 62 + rng.Float64()*6}
			pts = append(pts, p)
			idx.Add(int32(i), p)
		}
		for q := 0; q < 200; q++ {
			p := Point{Lon: 20 + rng.Float64()*6, Lat: 62 + rng.Float64()*6}
			radius := 500 + rng.Float64()*20000
			got := append([]int32(nil), idx.Near(p, radius)...)
			var want []int32
			for i, pt := range pts {
				if Haversine(p, pt) <= radius {
					want = append(want, int32(i))
				}
			}
			sortInt32(got)
			if !equalInt32(got, want) {
				t.Fatalf("Near(%v, %.0f) = %v, linear scan = %v", p, radius, got, want)
			}
		}
	}
}

func TestPointIndexDeterministicOrder(t *testing.T) {
	// Identical Add sequences must give byte-identical candidate orders
	// — the analytics tier's determinism contract rests on this.
	build := func() *PointIndex {
		idx := NewPointIndex(0.1)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			idx.Add(int32(i), Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()})
		}
		return idx
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 100; q++ {
		p := Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		ga := a.Near(p, 15000)
		gb := b.Near(p, 15000)
		if !equalInt32(ga, gb) {
			t.Fatalf("identical builds disagree at %v: %v vs %v", p, ga, gb)
		}
	}
}

func TestPointIndexCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := NewPointIndex(0.05)
	var pts []Point
	for i := 0; i < 200; i++ {
		p := Point{Lon: 24 + rng.Float64()*2, Lat: 37 + rng.Float64()*2}
		pts = append(pts, p)
		idx.Add(int32(i), p)
	}
	for q := 0; q < 100; q++ {
		p := Point{Lon: 24 + rng.Float64()*2, Lat: 37 + rng.Float64()*2}
		const radius = 4000
		cand := make(map[int32]bool)
		for _, id := range idx.CandidatesAppend(nil, p, radius) {
			cand[id] = true
		}
		for i, pt := range pts {
			if Haversine(p, pt) <= radius && !cand[int32(i)] {
				t.Fatalf("candidates missed point %d (%.0f m away)", i, Haversine(p, pt))
			}
		}
	}
}

func TestPointIndexResetReuse(t *testing.T) {
	idx := NewPointIndex(0.1)
	p1 := Point{Lon: 24, Lat: 37}
	idx.Add(1, p1)
	if got := idx.Near(p1, 100); !equalInt32(got, []int32{1}) {
		t.Fatalf("Near before reset = %v, want [1]", got)
	}
	idx.Reset()
	if idx.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", idx.Len())
	}
	if got := idx.Near(p1, 100); got != nil {
		t.Errorf("stale member survived Reset: %v", got)
	}
	p2 := Point{Lon: 25, Lat: 38}
	idx.Add(2, p2)
	if got := idx.Near(p2, 100); !equalInt32(got, []int32{2}) {
		t.Errorf("Near after reuse = %v, want [2]", got)
	}
	if got := idx.Near(p1, 100); got != nil {
		t.Errorf("old point leaked into reused index: %v", got)
	}
}

// pairsByRequery is the definition Pairs must reproduce, at its honest
// cost: query every point in turn and, for each earlier point among
// the candidates, re-run that point's own query to learn whether it
// already reported the pair.
func pairsByRequery(idx *PointIndex, pts []Point, radius float64) (pairs [][2]int32) {
	sees := func(from, to int) bool {
		for _, id := range idx.CandidatesAppend(nil, pts[from], radius) {
			if int(id) == to {
				return true
			}
		}
		return false
	}
	for i := range pts {
		for _, id := range idx.CandidatesAppend(nil, pts[i], radius) {
			j := int(id)
			if j > i || j < i && !sees(j, i) {
				pairs = append(pairs, [2]int32{int32(min(i, j)), int32(max(i, j))})
			}
		}
	}
	return pairs
}

// Pairs must report exactly the pairs of the query-and-re-query
// definition, in its order, and its O(1) box test must equal membership
// in CandidatesAppend for every ordered pair. The bands cover what
// makes the scan asymmetric or awkward: rows straddling the equator,
// |lat| > 60° where the longitude pad is wide and changes fast from row
// to row, the floored cosine near the pole, points exactly on cell
// edges, and radii both smaller and larger than a cell.
func TestPointIndexPairsMatchRequery(t *testing.T) {
	bands := []struct {
		name             string
		lon0, lat0       float64
		lonSpan, latSpan float64
	}{
		{"mid-latitude", 23, 36, 3, 3},
		{"equator", -1.5, -1.5, 3, 3},
		{"north-60", 10, 61, 6, 8},
		{"south-60", 170, -72, 6, 8},
		{"polar-floor", 0, 86.5, 20, 3},
	}
	const cellDeg = 0.25
	radii := []float64{3_000, 20_000, 27_800, 60_000, 140_000} // a cell is ≈ 27.8 km of latitude
	for _, band := range bands {
		rng := rand.New(rand.NewSource(11))
		idx := NewPointIndex(cellDeg)
		var pts []Point
		for i := 0; i < 160; i++ {
			p := Point{Lon: band.lon0 + rng.Float64()*band.lonSpan, Lat: band.lat0 + rng.Float64()*band.latSpan}
			if i%4 == 0 { // on a cell corner
				p.Lon = math.Round(p.Lon/cellDeg) * cellDeg
				p.Lat = math.Round(p.Lat/cellDeg) * cellDeg
			}
			pts = append(pts, p)
			idx.Add(int32(i), p)
		}
		oneWay := 0
		for _, radius := range radii {
			var got [][2]int32
			idx.Pairs(radius, func(a, b int32) { got = append(got, [2]int32{a, b}) })
			want := pairsByRequery(idx, pts, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("%s r=%.0f: Pairs reported %d pairs, the re-query definition %d (or another order)",
					band.name, radius, len(got), len(want))
			}
			for i := range pts {
				member := make([]bool, len(pts))
				for _, id := range idx.CandidatesAppend(nil, pts[i], radius) {
					member[id] = true
				}
				for j := range pts {
					if got := idx.reaches(int32(i), idx.at[j]); got != member[j] {
						t.Fatalf("%s r=%.0f: box test %d → %d = %v, candidate membership = %v",
							band.name, radius, i, j, got, member[j])
					}
					if member[j] && !idx.reaches(int32(j), idx.at[i]) {
						oneWay++
					}
				}
			}
		}
		if band.name == "north-60" && oneWay == 0 {
			t.Errorf("%s: no one-way pair in the fixture; the asymmetry Pairs handles is untested", band.name)
		}
	}
}

// A fleet that drifts across the grid must not leave its wake in the
// cell map: Reset drops a cell nothing returned to within a slide, so
// the map stays the size of two slides' footprints, and dropping cells
// never changes what a query returns or in which order.
func TestPointIndexCellsBoundedUnderDrift(t *testing.T) {
	const cellDeg, vessels, slides = 0.008, 200, 400
	idx := NewPointIndex(cellDeg)
	rng := rand.New(rand.NewSource(21))
	pts := make([]Point, vessels)
	for i := range pts {
		pts[i] = Point{Lon: 23 + rng.Float64()*0.5, Lat: 37 + rng.Float64()*0.5}
	}
	peak := 0
	for s := 0; s < slides; s++ {
		idx.Reset()
		fresh := NewPointIndex(cellDeg)
		for i := range pts {
			// Each vessel crosses about a cell per slide, north-east.
			pts[i].Lon += cellDeg * (0.5 + rng.Float64())
			pts[i].Lat += cellDeg * (0.5 + rng.Float64()) / 4
			idx.Add(int32(i), pts[i])
			fresh.Add(int32(i), pts[i])
		}
		peak = max(peak, len(idx.cells))
		for i := 0; i < vessels; i += 7 {
			got := idx.NearAppend(nil, pts[i], 2500)
			want := fresh.NearAppend(nil, pts[i], 2500)
			if !equalInt32(got, want) {
				t.Fatalf("slide %d: reused index returned %v, a fresh one %v", s, got, want)
			}
		}
	}
	if peak > 2*vessels {
		t.Errorf("cell map peaked at %d cells for %d drifting vessels over %d slides; want ≤ %d",
			peak, vessels, slides, 2*vessels)
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
