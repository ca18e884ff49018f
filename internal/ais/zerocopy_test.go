package ais

import (
	"fmt"
	"strings"
	"testing"
)

// differentialCorpus is a deterministic input exercising every line shape
// and every drop-classification path of the scanner: valid CSV and NMEA
// traffic, multi-fragment groups, type-5 voyage reports, and one
// representative of each malformation the stats distinguish.
func differentialCorpus(t testing.TB) string {
	t.Helper()
	var sb strings.Builder
	add := func(line string) { sb.WriteString(line); sb.WriteByte('\n') }
	// sum builds "!<body>*XX" with a correct checksum, so crafted lines
	// reach the classification stage they target instead of dropping as
	// BadChecksum first.
	sum := func(body string) string {
		var x byte
		for i := 0; i < len(body); i++ {
			x ^= body[i]
		}
		return fmt.Sprintf("!%s*%02X", body, x)
	}

	// Valid traffic in both formats, classes A and B.
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("%d,%.6f,%.6f,%d", 237000000+i, 20.0+float64(i)/100, 34.0+float64(i)/200, 1243814400+i))
		cls, typ := "A", TypePositionA
		if i%2 == 1 {
			cls, typ = "B", TypePositionB
		}
		r := &PositionReport{Type: typ, MMSI: uint32(237100000 + i),
			Lon: 21.0 + float64(i)/100, Lat: 35.0 + float64(i)/200, SpeedKnots: float64(i % 20)}
		lines, err := EncodeSentences(r, cls, i)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%d %s", 1243814400+i, lines[0]))
	}
	// Multi-fragment group (type 5 voyage report) — legacy assembler path.
	add("1243814400 !AIVDM,2,1,3,B,55P5TL01VIaAL@7WKO@mBplU@<PDhh000000001S;AJ::4A80?4i@E53,0*3E")
	add("1243814400 !AIVDM,2,2,3,B,1@0000000000000,2*55")
	// Comment, blank, whitespace lines.
	add("# comment")
	add("")
	add("   ")
	// One representative per drop class.
	add("1243814400 !AIVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0*00")        // bad checksum
	add("1243814400 " + sum("BSVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0"))  // not AIVDM
	add("notanumber !AIVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0*4A")        // bad timestamp
	add("1243814400 !AIVDM,1,1,,A,15RTgt0")                                  // truncated, no checksum
	add("1243814400 " + sum("AIVDM,1,1,,A"))                                 // too few fields
	add("1243814400 " + sum("AIVDM,1,1,,A,x,y,z,15RTgt0PAso;90TKcjM8h6g,0")) // too many fields
	add("1243814400 " + sum("AIVDM,x,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0"))  // bad fragment count
	add("1243814400 " + sum("AIVDM,1,1,,A,1\x7f5RTgt0PAso,0"))               // invalid armor char
	add("1243814400 " + sum("AIVDM,1,1,,A,w,0"))                             // unsupported type 63
	add("1243814400 " + sum("AIVDM,1,1,,A,1,0"))                             // class A too short
	add("1243814400 " + sum("AIVDM,2,2,9,A,1@0000000000000,2"))              // fragment 2 without 1
	add("not,a,csv,line,at,all")                                             // CSV field count
	add("mmsi,x,y,ts")                                                       // CSV parse failure
	add("237000001,200.0,37.0,1243814400")                                   // CSV out of range
	add("237000001,NaN,+Inf,1243814400")                                     // CSV non-finite
	// Sentinel not-available position over NMEA.
	r := &PositionReport{Type: TypePositionA, MMSI: 237555000, Lon: LonNotAvailable, Lat: LatNotAvailable}
	lines, err := EncodeSentences(r, "A", 0)
	if err != nil {
		t.Fatal(err)
	}
	add("1243814400 " + lines[0])

	// The edges of the single-pass decode: each line must land where the
	// string decoder puts it.
	const payload = "15RTgt0PAso;90TKcjM8h6g208CQ"
	valid := sum("AIVDM,1,1,,A," + payload + ",0")
	lowerHex := valid[:len(valid)-2] + strings.ToLower(valid[len(valid)-2:])
	if lowerHex == valid {
		t.Fatalf("checksum of %s has no hex letter to lowercase", valid)
	}
	add("1243814400 " + sum("AIVDM,1,1,,A,15RTgt0PA*so;90TKcjM8h6g208CQ,0")) // '*' in the payload
	add("1243814400 " + sum("AIVDM,1,1,,A,"+payload+"*,0"))                  // '*' ending the payload
	add("1243814400 " + sum("AIVDM,1,1,,A*,"+payload+",0"))                  // '*' in the channel
	add("1243814400 " + sum("AIVDM,1,1,,A,"+payload+",0*"))                  // '*' ending the last field
	add("1243814400 " + valid + "xyz")                                       // bytes after the checksum
	add("1243814400 " + valid + ",1,2")                                      // commas after the checksum
	add("1243814400 " + valid + "*00")                                       // a second checksum
	add("1243814400 " + lowerHex)                                            // lowercase hex checksum
	add("1243814400 " + valid[:len(valid)-2] + "4G")                         // non-hex checksum digit
	add("+1243814400 " + valid)                                              // sign
	add("-1 " + valid)                                                       // negative timestamp
	add("0001243814400 " + valid)                                            // leading zeros
	add("999999999999999999 " + valid)                                       // 18 digits, inline
	add("0000000001243814400 " + valid)                                      // 19 digits, in range
	add("9999999999999999999 " + valid)                                      // 19 digits, overflow
	add("12438144001243814400 " + valid)                                     // 20 digits, overflow
	add("1243814400\t" + valid)                                              // tab before '!'
	add("1243814400  " + valid)                                              // two spaces before '!'
	add("1243814400\u00a0" + valid)                                          // non-ASCII space before '!'
	add("1243814400\u00e9 " + valid)                                         // non-space, non-ASCII byte before '!'
	add("1243 814400 " + valid)                                              // space inside the timestamp
	add(valid)                                                               // no timestamp
	add("1243814400 " + sum("AIVDO,1,1,,A,"+payload+",0"))                   // own-vessel talker
	add("1243814400 " + sum("AIVDMX,1,1,,A,"+payload+",0"))                  // talker too long
	add("1243814400 " + sum("AIVDM,1,1,,A,"+payload+",6"))                   // fill 6
	add("1243814400 " + sum("AIVDM,1,1,,A,"+payload+",05"))                  // fill with a leading zero
	add("1243814400 " + sum("AIVDM,1,1,,A,"+payload+","))                    // empty fill
	add("1243814400 " + sum("AIVDM,01,1,,A,"+payload+",0"))                  // fragment count 01
	add("1243814400 " + sum("AIVDM,1,01,,A,"+payload+",0"))                  // fragment number 01
	add("1243814400 " + sum("AIVDM,+1,1,,A,"+payload+",0"))                  // signed fragment count
	add("1243814400 " + sum("AIVDM,1,10,,A,"+payload+",0"))                  // fragment 10 of 1
	add("1243814400 " + sum("AIVDM,10,1,4,A,"+payload+",0"))                 // fragment 1 of 10
	add("1243814400 " + sum("AIVDM,1,1,,A,,0"))                              // empty payload
	add("1243814400 " + lines[0] + "\r")                                     // CRLF line ending
	add("1243814400 " + valid + "\r")                                        // CRLF line ending
	for i, typ := range []int{TypePositionB, TypePositionBExtended, TypePositionAAssigned, TypePositionAResponse} {
		r := &PositionReport{Type: typ, MMSI: uint32(237200000 + i), Lon: -9.5 - float64(i), Lat: -38.25 + float64(i)}
		enc, err := EncodeSentences(r, "B", i)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%d %s", 1243814400+i, enc[0]))
		// The same report cut one character short of its bit length.
		short := enc[0][:strings.LastIndexByte(enc[0], ',')]
		add(fmt.Sprintf("%d %s", 1243814400+i, sum(short[1:len(short)-1]+",0")))
	}
	// A line past the read buffer's limit, between two valid fixes: one
	// Malformed line, and the scan goes on.
	add("237000001,23.5,37.5,1243814400")
	add(strings.Repeat("9", maxLineBytes+1))
	add("237000002,23.6,37.6,1243814460")
	return sb.String()
}

// TestZeroCopyDifferential runs the corpus through the zero-copy fast
// path and the legacy string decoder: fix streams, stats, and collected
// voyages must match exactly, and the stats must reconcile.
func TestZeroCopyDifferential(t *testing.T) {
	input := differentialCorpus(t)
	fast := NewScanner(strings.NewReader(input))
	oracle := NewScanner(strings.NewReader(input))

	var n int
	for fast.Scan() {
		if !oracle.scanLegacy() {
			t.Fatalf("fix %d: legacy oracle ended early", n)
		}
		if got, want := fast.Fix(), oracle.Fix(); got != want {
			t.Fatalf("fix %d diverges:\n zero-copy: %+v\n legacy:    %+v", n, got, want)
		}
		n++
	}
	if oracle.scanLegacy() {
		t.Fatalf("legacy oracle emitted an extra fix: %+v", oracle.Fix())
	}
	if n == 0 {
		t.Fatal("corpus produced no fixes")
	}
	st, ost := fast.Stats(), oracle.Stats()
	if st != ost {
		t.Fatalf("stats diverge:\n zero-copy: %+v\n legacy:    %+v", st, ost)
	}
	if !st.Reconciles() {
		t.Fatalf("stats do not reconcile: %+v", st)
	}
	// Every drop class must actually be hit, or the corpus has rotted.
	if st.BadChecksum == 0 || st.Malformed == 0 || st.Unsupported == 0 ||
		st.NoPosition == 0 || st.FragmentLoss == 0 || st.VoyageReports == 0 ||
		st.Blank == 0 || st.Fragments == 0 {
		t.Fatalf("corpus misses a drop class: %+v", st)
	}
	if len(fast.Voyages()) != len(oracle.Voyages()) || len(fast.Voyages()) == 0 {
		t.Fatalf("voyages: %d zero-copy, %d legacy", len(fast.Voyages()), len(oracle.Voyages()))
	}
}

// TestZeroCopyScanAllocs pins the allocation contract of the fast path: a
// warm scanner decodes single-fragment position traffic without
// allocating per line.
func TestZeroCopyScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		r := &PositionReport{Type: TypePositionA, MMSI: uint32(237000000 + i%500),
			Lon: 20.0 + float64(i%800)/100, Lat: 34.0 + float64(i%600)/100}
		lines, err := EncodeSentences(r, "A", i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%d %s\n", 1243814400+i, lines[0])
		fmt.Fprintf(&sb, "%d,%.6f,%.6f,%d\n", 237000000+i%500, 20.0+float64(i%800)/100,
			34.0+float64(i%600)/100, 1243814400+i)
	}
	input := sb.String()
	allocs := testing.AllocsPerRun(5, func() {
		sc := NewScanner(strings.NewReader(input))
		for sc.Scan() {
		}
		if sc.Stats().Fixes != 4000 {
			t.Fatalf("fixes = %d, want 4000", sc.Stats().Fixes)
		}
	})
	// One scanner construction costs a handful of allocations (bufio
	// buffer, split-function closure, assembler, voyage map); the 4000
	// decoded lines must add nothing on top.
	const maxAllocs = 10
	if allocs > maxAllocs {
		t.Errorf("scan pass allocated %.0f times for 4000 fixes, want <= %d (scanner setup only)", allocs, maxAllocs)
	}
}

// benchDecode measures per-fix decode cost over a prebuilt input.
func benchDecode(b *testing.B, input string, fixes int, legacy bool) {
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(strings.NewReader(input))
		scan := sc.Scan
		if legacy {
			scan = sc.scanLegacy
		}
		n := 0
		for scan() {
			n++
		}
		if n != fixes {
			b.Fatalf("fixes = %d, want %d", n, fixes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixes), "ns/fix")
}

// BenchmarkDecode compares the zero-copy fast path against the legacy
// string-based decoder on pure NMEA and pure CSV traffic. The interesting
// metrics are ns/fix and allocs/op (one op = one pass over the corpus;
// scanner setup is the only allocation the fast path should show).
func BenchmarkDecode(b *testing.B) {
	const lines = 5000
	var nmea, csv strings.Builder
	for i := 0; i < lines; i++ {
		r := &PositionReport{Type: TypePositionA, MMSI: uint32(237000000 + i%500),
			Lon: 20.0 + float64(i%800)/100, Lat: 34.0 + float64(i%600)/100,
			SpeedKnots: float64(i % 25)}
		enc, err := EncodeSentences(r, "A", i)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&nmea, "%d %s\n", 1243814400+i, enc[0])
		fmt.Fprintf(&csv, "%d,%.6f,%.6f,%d\n", 237000000+i%500, 20.0+float64(i%800)/100,
			34.0+float64(i%600)/100, 1243814400+i)
	}
	b.Run("nmea-zerocopy", func(b *testing.B) { benchDecode(b, nmea.String(), lines, false) })
	b.Run("nmea-legacy", func(b *testing.B) { benchDecode(b, nmea.String(), lines, true) })
	b.Run("csv-zerocopy", func(b *testing.B) { benchDecode(b, csv.String(), lines, false) })
	b.Run("csv-legacy", func(b *testing.B) { benchDecode(b, csv.String(), lines, true) })
}
