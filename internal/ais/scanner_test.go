package ais

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestScannerCSV(t *testing.T) {
	input := strings.Join([]string{
		"# comment line",
		"",
		"237000001,23.646700,37.942100,1243814400",
		"237000002,25.144200,35.338700,1243814460",
		"not,a,valid,line,at,all",
		"237000003,200.0,37.0,1243814520", // longitude out of range
	}, "\n")
	sc := NewScanner(strings.NewReader(input))

	var fixes []Fix
	for sc.Scan() {
		fixes = append(fixes, sc.Fix())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fixes) != 2 {
		t.Fatalf("got %d fixes, want 2", len(fixes))
	}
	if fixes[0].MMSI != 237000001 || fixes[1].MMSI != 237000002 {
		t.Errorf("MMSIs = %d, %d", fixes[0].MMSI, fixes[1].MMSI)
	}
	if !fixes[0].Time.Equal(time.Unix(1243814400, 0)) {
		t.Errorf("time = %v", fixes[0].Time)
	}
	st := sc.Stats()
	if st.Malformed != 1 || st.NoPosition != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScannerNMEA(t *testing.T) {
	r := &PositionReport{Type: 1, MMSI: 237555000, Lon: 24.9, Lat: 37.4, SpeedKnots: 11.5}
	lines, err := EncodeSentences(r, "A", 0)
	if err != nil {
		t.Fatal(err)
	}
	input := "1243814400 " + lines[0] + "\n" +
		"1243814455 " + lines[0] + "\n"
	sc := NewScanner(strings.NewReader(input))
	var n int
	for sc.Scan() {
		n++
		f := sc.Fix()
		if f.MMSI != 237555000 {
			t.Errorf("MMSI = %d", f.MMSI)
		}
	}
	if n != 2 {
		t.Errorf("fixes = %d, want 2", n)
	}
}

func TestScannerDropsBadChecksum(t *testing.T) {
	r := &PositionReport{Type: 1, MMSI: 237555000, Lon: 24.9, Lat: 37.4}
	lines, _ := EncodeSentences(r, "A", 0)
	corrupted := lines[0][:len(lines[0])-6] + "zzz*00"
	input := "1243814400 " + corrupted + "\n1243814401 " + lines[0] + "\n"
	sc := NewScanner(strings.NewReader(input))
	var n int
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Errorf("fixes = %d, want 1", n)
	}
	if sc.Stats().Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", sc.Stats().Dropped())
	}
}

func TestScannerMixedFormats(t *testing.T) {
	r := &PositionReport{Type: 18, MMSI: 237666000, Lon: 23.1, Lat: 37.8}
	lines, _ := EncodeSentences(r, "B", 0)
	input := "237000001,23.6467,37.9421,1243814400\n" +
		"1243814410 " + lines[0] + "\n"
	sc := NewScanner(strings.NewReader(input))
	var got []uint32
	for sc.Scan() {
		got = append(got, sc.Fix().MMSI)
	}
	if len(got) != 2 || got[0] != 237000001 || got[1] != 237666000 {
		t.Errorf("MMSIs = %v", got)
	}
}

func TestScannerSentinelPositionDropped(t *testing.T) {
	r := &PositionReport{Type: 1, MMSI: 237555000, Lon: LonNotAvailable, Lat: LatNotAvailable}
	lines, err := EncodeSentences(r, "A", 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(strings.NewReader("1243814400 " + lines[0] + "\n"))
	for sc.Scan() {
		t.Error("sentinel position emitted as a fix")
	}
	if sc.Stats().NoPosition != 1 {
		t.Errorf("stats = %+v", sc.Stats())
	}
}

// TestScannerSkipsOverLongLine: a line past the read buffer's limit is one
// Malformed line, and the scan resumes at the next newline instead of
// ending the feed with bufio.ErrTooLong.
func TestScannerSkipsOverLongLine(t *testing.T) {
	const fixA, fixB = "237000001,23.5,37.5,1243814400\n", "237000002,23.6,37.6,1243814460\n"
	long := strings.Repeat("9", 2<<20)
	for _, tc := range []struct {
		name                   string
		input                  string
		fixes, lines, longOnes int
	}{
		{"between fixes", fixA + long + "\n" + fixB, 2, 3, 1},
		{"two in a row", fixA + long + "\r\n" + long + "\n" + fixB, 2, 4, 2},
		{"at end of input", fixA + fixB + long, 2, 3, 1},
	} {
		sc := NewScanner(strings.NewReader(tc.input))
		var got []uint32
		for sc.Scan() {
			got = append(got, sc.Fix().MMSI)
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		st := sc.Stats()
		if len(got) != tc.fixes || got[0] != 237000001 || got[len(got)-1] != 237000002 {
			t.Errorf("%s: fixes %v", tc.name, got)
		}
		if st.Lines != tc.lines || st.Malformed != tc.longOnes || !st.Reconciles() {
			t.Errorf("%s: stats %+v, want Lines=%d Malformed=%d reconciling", tc.name, st, tc.lines, tc.longOnes)
		}
	}
}

func TestWriteFixCSVRoundTrip(t *testing.T) {
	f := Fix{MMSI: 237000009, Pos: geo.Point{Lon: 24.123456, Lat: 38.654321}, Time: time.Unix(1243814400, 0).UTC()}
	var sb strings.Builder
	if err := WriteFixCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(strings.NewReader(sb.String()))
	if !sc.Scan() {
		t.Fatal("no fix scanned back")
	}
	got := sc.Fix()
	if got.MMSI != f.MMSI || !got.Time.Equal(f.Time) {
		t.Errorf("got %+v, want %+v", got, f)
	}
	if diff := math.Abs(got.Pos.Lon-f.Pos.Lon) + math.Abs(got.Pos.Lat-f.Pos.Lat); diff > 2e-6 {
		t.Errorf("position drift %v", diff)
	}
}

// BenchmarkScannerCSV measures Data Scanner throughput on the CSV
// format (the shape of the paper's dataset).
func BenchmarkScannerCSV(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f,%d\n", 237000000+i%500, 20.0+float64(i%800)/100,
			34.0+float64(i%600)/100, 1243814400+i)
	}
	input := sb.String()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(strings.NewReader(input))
		for sc.Scan() {
		}
	}
}

// BenchmarkScannerNMEA measures the full AIVDM decode path.
func BenchmarkScannerNMEA(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		r := &PositionReport{
			Type: TypePositionA, MMSI: uint32(237000000 + i%500),
			Lon: 20.0 + float64(i%800)/100, Lat: 34.0 + float64(i%600)/100,
		}
		lines, err := EncodeSentences(r, "A", i)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&sb, "%d %s\n", 1243814400+i, lines[0])
	}
	input := sb.String()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(strings.NewReader(input))
		for sc.Scan() {
		}
	}
}
