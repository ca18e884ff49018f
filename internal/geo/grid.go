package geo

import (
	"math"
)

// This file holds the two halves of the system's shared proximity
// index. Both are uniform grids over geographic coordinates and share
// the same padding arithmetic (metersPerDegLat, worstCaseLonPad):
//
//   - AreaIndex: the static half — polygons of the monitored region,
//     built once, queried with point-to-area proximity lookups by the
//     complex event recognition module.
//   - PointIndex: the dynamic half — the per-slide spatio-temporal
//     index the pairwise analytics tier rebuilds from the tracker's
//     merged critical-point state each slide, queried with
//     point-to-point radius lookups (collision screening, rendezvous
//     pairing).

// metersPerDegLat is the meridional meter length of one degree of
// latitude on the sphere.
const metersPerDegLat = math.Pi * EarthRadiusMeters / 180

// minLonCos floors the latitude cosine used to convert a meter pad
// into longitude degrees, so grids near the poles degrade to wide
// (over-approximate) cells instead of dividing by zero.
const minLonCos = 0.05

// worstCaseLonPad converts a latitude pad in degrees into the
// longitude pad that over-approximates it anywhere in a latitude band
// reaching at most maxAbsLat degrees from the equator. Longitude
// degrees shrink with the cosine of the latitude, so the band's
// highest |latitude| needs the widest pad; using any smaller cosine
// (for example the band center's) under-pads the high-latitude edge
// and can make an index miss a neighbor within threshold.
func worstCaseLonPad(padDeg, maxAbsLat float64) float64 {
	return padDeg / math.Max(minLonCos, cosDeg(maxAbsLat))
}

// AreaIndex accelerates point-to-area proximity lookups with a uniform
// grid over the monitored region. The complex event recognition module
// evaluates close(Lon, Lat, Area) for every critical movement event
// (paper §4.1); with a grid, only the handful of areas whose padded
// bounding boxes intersect the point's cell are tested exactly, instead
// of all 35 areas.
//
// The index is immutable after construction and safe for concurrent use.
type AreaIndex struct {
	polys    []*Polygon
	padDeg   float64 // proximity threshold converted to degrees latitude
	bounds   BBox
	cellDeg  float64
	cols     int
	rows     int
	cells    [][]int32 // polygon indices per cell
	fallback bool      // true when the index degenerated to a scan
}

// NewAreaIndex builds a grid index over the given polygons for proximity
// queries at the given threshold in meters. cellDeg controls grid
// resolution; a value around the typical area diameter works well. If
// the polygon set is empty the index degenerates gracefully.
func NewAreaIndex(polys []*Polygon, thresholdMeters, cellDeg float64) *AreaIndex {
	// The threshold in degrees of latitude, inflated by 1% so the padded
	// boxes strictly over-approximate the proximity ring.
	idx := &AreaIndex{
		polys:   polys,
		padDeg:  thresholdMeters / metersPerDegLat * 1.01,
		cellDeg: cellDeg,
	}
	if len(polys) == 0 || cellDeg <= 0 {
		idx.fallback = true
		return idx
	}

	idx.bounds = polys[0].BBox()
	for _, pg := range polys[1:] {
		b := pg.BBox()
		if b.MinLon < idx.bounds.MinLon {
			idx.bounds.MinLon = b.MinLon
		}
		if b.MaxLon > idx.bounds.MaxLon {
			idx.bounds.MaxLon = b.MaxLon
		}
		if b.MinLat < idx.bounds.MinLat {
			idx.bounds.MinLat = b.MinLat
		}
		if b.MaxLat > idx.bounds.MaxLat {
			idx.bounds.MaxLat = b.MaxLat
		}
	}
	// Pad the grid so that points merely close to an area still fall on
	// it. Longitude degrees shrink with latitude, so the pad must assume
	// the worst-case (highest-|latitude|) edge of the region — the center
	// latitude's cosine would under-pad the poleward edge of a region
	// spanning a wide latitude range.
	latPad := idx.padDeg
	maxAbsLat := math.Max(math.Abs(idx.bounds.MinLat-latPad), math.Abs(idx.bounds.MaxLat+latPad))
	lonPad := worstCaseLonPad(idx.padDeg, maxAbsLat)
	idx.bounds = BBox{
		MinLon: idx.bounds.MinLon - lonPad, MaxLon: idx.bounds.MaxLon + lonPad,
		MinLat: idx.bounds.MinLat - latPad, MaxLat: idx.bounds.MaxLat + latPad,
	}

	idx.cols = int(math.Ceil((idx.bounds.MaxLon - idx.bounds.MinLon) / cellDeg))
	idx.rows = int(math.Ceil((idx.bounds.MaxLat - idx.bounds.MinLat) / cellDeg))
	if idx.cols < 1 {
		idx.cols = 1
	}
	if idx.rows < 1 {
		idx.rows = 1
	}
	const maxCells = 1 << 20
	if idx.cols*idx.rows > maxCells {
		idx.fallback = true
		return idx
	}
	idx.cells = make([][]int32, idx.cols*idx.rows)
	for i, pg := range polys {
		b := pg.BBox()
		c0, r0 := idx.cellOf(Point{Lon: b.MinLon - lonPad, Lat: b.MinLat - latPad})
		c1, r1 := idx.cellOf(Point{Lon: b.MaxLon + lonPad, Lat: b.MaxLat + latPad})
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				cell := r*idx.cols + c
				idx.cells[cell] = append(idx.cells[cell], int32(i))
			}
		}
	}
	return idx
}

// cellOf returns the clamped (col, row) of the cell containing p.
func (idx *AreaIndex) cellOf(p Point) (col, row int) {
	col = int((p.Lon - idx.bounds.MinLon) / idx.cellDeg)
	row = int((p.Lat - idx.bounds.MinLat) / idx.cellDeg)
	if col < 0 {
		col = 0
	} else if col >= idx.cols {
		col = idx.cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= idx.rows {
		row = idx.rows - 1
	}
	return col, row
}

// Candidates returns the indices (into the constructor's slice) of the
// polygons that might be within the proximity threshold of p. Exactness
// is up to the caller; Candidates may over-approximate but never misses
// a polygon within the threshold.
func (idx *AreaIndex) Candidates(p Point) []int32 {
	if idx.fallback {
		all := make([]int32, len(idx.polys))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	if !idx.bounds.Contains(p) {
		return nil
	}
	col, row := idx.cellOf(p)
	return idx.cells[row*idx.cols+col]
}

// CloseTo returns the indices of all polygons whose Haversine distance to
// p is at most thresholdMeters, in ascending index order. This is the
// exact form of the paper's close/3 predicate over the whole area set.
func (idx *AreaIndex) CloseTo(p Point, thresholdMeters float64) []int32 {
	return idx.CloseToAppend(nil, p, thresholdMeters)
}

// CloseToAppend is CloseTo writing into buf (grown as needed), so hot
// loops can reuse one buffer across calls instead of allocating per
// query. The index itself is read-only after construction, so
// CloseToAppend is safe to call from concurrent goroutines as long as
// each passes its own buf.
func (idx *AreaIndex) CloseToAppend(buf []int32, p Point, thresholdMeters float64) []int32 {
	for _, i := range idx.Candidates(p) {
		if idx.polys[i].DistanceMeters(p) <= thresholdMeters {
			buf = append(buf, i)
		}
	}
	return buf
}

// ContainedIn returns the indices of the polygons containing p.
func (idx *AreaIndex) ContainedIn(p Point) []int32 {
	var out []int32
	for _, i := range idx.Candidates(p) {
		if idx.polys[i].Contains(p) {
			out = append(out, i)
		}
	}
	return out
}

// Len returns the number of indexed polygons.
func (idx *AreaIndex) Len() int { return len(idx.polys) }

// Fallback reports whether the index degenerated to a linear scan; it is
// exposed for the ablation benchmarks comparing grid vs scan.
func (idx *AreaIndex) Fallback() bool { return idx.fallback }

// PointIndex is the dynamic half of the shared proximity index: a
// uniform hash grid over point positions, rebuilt per window slide from
// the tracker's merged per-vessel state and queried by the pairwise
// analytics consumers (collision screening, rendezvous pairing, dark
// correlation). Unlike AreaIndex it has no fixed bounds — cells exist
// only where points do — so one index serves any monitored region.
//
// Determinism contract: Near/NearAppend scan cells in ascending
// (row, col) order and report each cell's members in insertion order,
// so identical Add sequences produce identical candidate orders. The
// index is not safe for concurrent mutation; rebuild-then-query within
// one slide is the intended use.
type PointIndex struct {
	cellDeg float64
	pts     []Point
	ids     []int32
	at      []pointCell           // each point's cell
	cells   map[pointCell][]int32 // values index pts/ids/at
	// live lists the cells that received a point since the last Reset;
	// idle lists the ones Reset emptied, which the next Reset drops
	// unless a point came back. Reset therefore walks the cells of two
	// slides, not every cell the index ever touched, and the map tracks
	// where the fleet is instead of everywhere it has been.
	live, idle []pointCell
	// rowCos caches, direct-mapped by row, the clamped cosine of each
	// row band's highest |latitude| (worstCaseLonPad's divisor): a row's
	// longitude pad costs a division per query instead of a math.Cos. A
	// zero cos marks an empty slot (the clamp keeps real ones ≥ minLonCos).
	rowCos [rowCosSlots]struct {
		row int32
		cos float64
	}
	// Pairs scratch: every point's scan box, and the boxes' per-row
	// column ranges back to back.
	boxes   []scanBox
	boxCols []int32
}

// scanBox is the cell range one point's scan covers: rows rowLo..rowHi
// and, for row r, columns boxCols[cols+2(r-rowLo)] to the entry after it.
type scanBox struct {
	rowLo, rowHi int32
	cols         int32
}

// rowCosSlots sizes the row-cosine cache: a power of two well above the
// rows one fleet's latitude span covers at the analytics cell sizes, so
// slots rarely collide; a collision only recomputes.
const rowCosSlots = 1024

type pointCell struct{ col, row int32 }

// NewPointIndex returns an empty index with the given cell size in
// degrees. A cell around the typical query radius works well; cellDeg
// must be positive.
func NewPointIndex(cellDeg float64) *PointIndex {
	if cellDeg <= 0 {
		cellDeg = 0.05
	}
	return &PointIndex{
		cellDeg: cellDeg,
		cells:   make(map[pointCell][]int32),
	}
}

// Reset empties the index for the next slide. A cell keeps its member
// slice across one empty slide so a stationary fleet rebuilds without
// allocating; a cell nothing returned to is dropped.
func (x *PointIndex) Reset() {
	x.pts = x.pts[:0]
	x.ids = x.ids[:0]
	x.at = x.at[:0]
	for _, c := range x.idle {
		if len(x.cells[c]) == 0 {
			delete(x.cells, c)
		}
	}
	for _, c := range x.live {
		x.cells[c] = x.cells[c][:0]
	}
	x.live, x.idle = x.idle[:0], x.live
}

// Add inserts a point under the caller's handle id.
func (x *PointIndex) Add(id int32, p Point) {
	c := x.cellAt(p)
	slot := int32(len(x.pts))
	x.pts = append(x.pts, p)
	x.ids = append(x.ids, id)
	x.at = append(x.at, c)
	members := x.cells[c]
	if len(members) == 0 {
		x.live = append(x.live, c)
	}
	x.cells[c] = append(members, slot)
}

// Len returns the number of indexed points.
func (x *PointIndex) Len() int { return len(x.pts) }

func (x *PointIndex) cellAt(p Point) pointCell {
	return pointCell{col: x.colOf(p.Lon), row: x.rowOf(p.Lat)}
}

func (x *PointIndex) rowOf(lat float64) int32 { return int32(math.Floor(lat / x.cellDeg)) }
func (x *PointIndex) colOf(lon float64) int32 { return int32(math.Floor(lon / x.cellDeg)) }

// Near returns the ids of every point within radiusMeters of p
// (Haversine-exact), in insertion order. The query point itself is
// reported if it was added; callers exclude their own handle.
func (x *PointIndex) Near(p Point, radiusMeters float64) []int32 {
	return x.NearAppend(nil, p, radiusMeters)
}

// NearAppend is Near writing into buf (grown as needed) so per-slide
// loops can reuse one buffer across queries.
func (x *PointIndex) NearAppend(buf []int32, p Point, radiusMeters float64) []int32 {
	return x.scan(buf, p, radiusMeters, true)
}

// CandidatesAppend appends the ids of every point whose cell intersects
// the padded radius box around p, without the exact Haversine filter —
// the over-approximating form for callers that apply their own pair
// predicate (the analytics tier's CPA test).
func (x *PointIndex) CandidatesAppend(buf []int32, p Point, radiusMeters float64) []int32 {
	return x.scan(buf, p, radiusMeters, false)
}

// Pairs calls visit(a, b) once for every unordered pair of indexed
// points of which one is among the other's CandidatesAppend at this
// radius, a being the one added first. The per-row longitude pad makes
// that relation slightly asymmetric at the radius boundary, so a pair
// belongs to the earlier point's scan when that scan reaches the later
// point, and to the later point's scan otherwise. Pairs come out by
// owning point in insertion order, then in that point's scan order —
// the order of querying every point in turn and skipping the pairs an
// earlier query already reported, at the cost of the queries alone:
// "does o's scan reach this cell" is a row-range check and one column
// range lookup in o's box, which is exactly the membership scan computes.
func (x *PointIndex) Pairs(radiusMeters float64, visit func(a, b int32)) {
	radDeg := scanRadiusDeg(radiusMeters)
	x.boxes, x.boxCols = x.boxes[:0], x.boxCols[:0]
	for _, p := range x.pts {
		b := scanBox{rowLo: x.rowOf(p.Lat - radDeg), rowHi: x.rowOf(p.Lat + radDeg), cols: int32(len(x.boxCols))}
		x.boxes = append(x.boxes, b)
		for row := b.rowLo; row <= b.rowHi; row++ {
			lonSpan := x.rowLonSpan(radDeg, row)
			x.boxCols = append(x.boxCols, x.colOf(p.Lon-lonSpan), x.colOf(p.Lon+lonSpan))
		}
	}
	for s, b := range x.boxes {
		s := int32(s)
		for row := b.rowLo; row <= b.rowHi; row++ {
			k := b.cols + 2*(row-b.rowLo)
			for col := x.boxCols[k]; col <= x.boxCols[k+1]; col++ {
				for _, o := range x.cells[pointCell{col: col, row: row}] {
					if o > s {
						visit(x.ids[s], x.ids[o])
					} else if o < s && !x.reaches(o, x.at[s]) {
						visit(x.ids[o], x.ids[s])
					}
				}
			}
		}
	}
}

// reaches reports whether point from's scan box, as Pairs last built
// it, covers cell c.
func (x *PointIndex) reaches(from int32, c pointCell) bool {
	b := x.boxes[from]
	if c.row < b.rowLo || c.row > b.rowHi {
		return false
	}
	k := b.cols + 2*(c.row-b.rowLo)
	return x.boxCols[k] <= c.col && c.col <= x.boxCols[k+1]
}

// scanRadiusDeg is a query radius in degrees of latitude, inflated by
// 1% so the scanned cell box strictly over-approximates the proximity
// ring.
func scanRadiusDeg(radiusMeters float64) float64 {
	return radiusMeters / metersPerDegLat * 1.01
}

// rowLonSpan is the longitude half-width a query of radDeg scans in the
// given row. The span a radius covers widens with the row's latitude;
// pad with the row band's worst-case (highest-|lat|) edge, exactly like
// the area index's region pad.
func (x *PointIndex) rowLonSpan(radDeg float64, row int32) float64 {
	e := &x.rowCos[uint32(row)%rowCosSlots]
	if e.row != row || e.cos == 0 {
		loLat := float64(row) * x.cellDeg
		hiLat := loLat + x.cellDeg
		maxAbsLat := math.Max(math.Abs(loLat), math.Abs(hiLat))
		e.row, e.cos = row, math.Max(minLonCos, cosDeg(maxAbsLat))
	}
	return radDeg / e.cos
}

func (x *PointIndex) scan(buf []int32, p Point, radiusMeters float64, exact bool) []int32 {
	if len(x.pts) == 0 {
		return buf
	}
	radDeg := scanRadiusDeg(radiusMeters)
	rowLo, rowHi := x.rowOf(p.Lat-radDeg), x.rowOf(p.Lat+radDeg)
	for row := rowLo; row <= rowHi; row++ {
		lonSpan := x.rowLonSpan(radDeg, row)
		colLo, colHi := x.colOf(p.Lon-lonSpan), x.colOf(p.Lon+lonSpan)
		for col := colLo; col <= colHi; col++ {
			for _, slot := range x.cells[pointCell{col: col, row: row}] {
				if exact && Haversine(p, x.pts[slot]) > radiusMeters {
					continue
				}
				buf = append(buf, x.ids[slot])
			}
		}
	}
	return buf
}
