package ais

import (
	"strings"
	"testing"
)

// FuzzScanner hammers the Data Scanner with arbitrary byte streams: it
// must never panic, never emit an invalid fix, and its stats must
// account every consumed line exactly once
// (Lines == Fixes + VoyageReports + Dropped + Blank + Fragments).
func FuzzScanner(f *testing.F) {
	// Seeds drawn from the robustness-test corpus: every input shape the
	// deterministic tests already exercise, plus valid traffic so the
	// fuzzer mutates from both sides of the accept/reject boundary.
	seeds := []string{
		"1243814400 !AIVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0*4A",
		"237000001,23.5,37.5,1243814400",
		"1243814400 !AIVDM,1,1,,A,15RTgt0", // truncated NMEA
		"99999999999999999999,999,999,99999999999999999999",
		"237000001,NaN,+Inf,1243814400",
		"   ",
		"# comment line",
		"1243814400 !AIVDM,1,1,,A,0,0*F", // checksum of the wrong length
		strings.Repeat(",", 17),
		"1243814400 !AIVDM,2,1,3,B,55P5TL01VIaAL@7WKO@mBplU@<PDhh000000001S;AJ::4A80?4i@E53,0*3E",
		"1243814400 !AIVDM,2,2,3,B,1@0000000000000,2*55",
		"1243814400 !AIVDM,2,1,7,A,5000Htl000000000000<518T<u8pTuwF0000001S0p==40004hC`12,0*2B",
		"not a line at all \x00\xff",
		"1243814400 !BSVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0*4A",
		// Lowercase checksum, CRLF ending. (A line past the read buffer's
		// limit is in differentialCorpus: a 1 MiB seed pins the mutator.)
		"1243814400 !AIVDM,1,1,,A,15RTgt0PAso;90TKcjM8h6g208CQ,0*4a\r",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
		f.Add([]byte(s + "\n" + s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential run: the zero-copy fast path (default) against the
		// legacy string-based decoder held up as the oracle. Both must
		// emit identical fixes in identical order, reconcile their stats,
		// and agree on every drop counter.
		sc := NewScanner(strings.NewReader(string(data)))
		oracle := NewScanner(strings.NewReader(string(data)))
		for sc.Scan() {
			fix := sc.Fix()
			if !fix.Pos.Valid() {
				t.Fatalf("scanner emitted an invalid position: %v", fix)
			}
			if !oracle.scanLegacy() {
				t.Fatalf("zero-copy path emitted %v, legacy oracle ended", fix)
			}
			if want := oracle.Fix(); fix != want {
				t.Fatalf("decoders diverge:\n zero-copy: %+v\n legacy:    %+v", fix, want)
			}
		}
		if oracle.scanLegacy() {
			t.Fatalf("legacy oracle emitted %v past the zero-copy path's end", oracle.Fix())
		}
		if err := sc.Err(); err != nil {
			// An in-memory stream cannot fail to read, and an over-long
			// line is counted Malformed rather than ending the scan.
			t.Fatalf("scan err: %v", err)
		}
		st, ost := sc.Stats(), oracle.Stats()
		if st != ost {
			t.Fatalf("stats diverge:\n zero-copy: %+v\n legacy:    %+v", st, ost)
		}
		if !st.Reconciles() {
			t.Fatalf("stats do not reconcile: %+v (fixes+voyage+dropped+blank+fragments = %d, lines = %d)",
				st, st.Fixes+st.VoyageReports+st.Dropped()+st.Blank+st.Fragments, st.Lines)
		}
		if len(sc.Voyages()) != len(oracle.Voyages()) {
			t.Fatalf("voyage maps diverge: %d zero-copy, %d legacy", len(sc.Voyages()), len(oracle.Voyages()))
		}
		for mmsi, v := range sc.Voyages() {
			if ov, ok := oracle.Voyages()[mmsi]; !ok || ov != v {
				t.Fatalf("voyage for %d diverges:\n zero-copy: %+v\n legacy:    %+v", mmsi, v, ov)
			}
		}
	})
}
