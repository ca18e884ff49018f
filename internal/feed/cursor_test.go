package feed

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/stream"
)

func fixAt(m uint32, at time.Time) ais.Fix {
	return ais.Fix{MMSI: m, Time: at}
}

func TestCursorNote(t *testing.T) {
	var c Cursor
	c.Note(fixAt(1, t0))
	c.Note(fixAt(2, t0))
	c.Note(fixAt(1, t0))
	if c.Sec != t0.Unix() || c.SeenAtSec[1] != 2 || c.SeenAtSec[2] != 1 {
		t.Fatalf("cursor after same-second fixes = %+v", c)
	}
	// Advancing a second clears the per-vessel counts.
	c.Note(fixAt(3, t0.Add(time.Second)))
	if c.Sec != t0.Unix()+1 || len(c.SeenAtSec) != 1 || c.SeenAtSec[3] != 1 {
		t.Fatalf("cursor after advancing = %+v", c)
	}
}

// TestCursorNoteAllMatchesNote holds the batch form to the per-fix
// definition on random batches — seconds out of order, repeated
// vessels, empty batches — from a zero cursor and from one restored out
// of a checkpoint's encoding: both cursors must stay equal, down to a
// nil versus an empty map.
func TestCursorNoteAllMatchesNote(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var restored Cursor
	for i := 0; i < 40; i++ {
		restored.Note(fixAt(uint32(rng.Intn(4)), t0.Add(time.Duration(rng.Intn(3))*time.Second)))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(restored); err != nil {
		t.Fatal(err)
	}
	restored = Cursor{}
	if err := gob.NewDecoder(&buf).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	for _, start := range []Cursor{{}, restored, {Sec: t0.Unix() + 200}} {
		batch, perFix := start.Clone(), start.Clone()
		base := t0
		for b := 0; b < 500; b++ {
			fixes := make([]ais.Fix, rng.Intn(12)) // one in twelve empty
			for i := range fixes {
				// Mostly forward, now and then a second or two back.
				at := base.Add(time.Duration(rng.Intn(5)-1) * time.Second)
				fixes[i] = fixAt(uint32(rng.Intn(5)), at)
			}
			base = base.Add(time.Duration(rng.Intn(3)) * time.Second)
			batch.NoteAll(fixes)
			for _, f := range fixes {
				perFix.Note(f)
			}
			if !reflect.DeepEqual(batch, perFix) {
				t.Fatalf("from %+v, batch %d %v: NoteAll gives %#v, Note per fix %#v", start, b, fixes, batch, perFix)
			}
		}
	}
}

func TestCursorCloneIsIndependent(t *testing.T) {
	var c Cursor
	c.Note(fixAt(1, t0))
	snap := c.Clone()
	c.Note(fixAt(1, t0))
	c.Note(fixAt(9, t0))
	if snap.SeenAtSec[1] != 1 || snap.SeenAtSec[9] != 0 {
		t.Fatalf("clone mutated by later notes: %+v", snap)
	}
}

func TestResumeFilterSkipsCoveredPrefix(t *testing.T) {
	fixes := []ais.Fix{
		fixAt(1, t0),                    // before cursor second: skipped
		fixAt(1, t0.Add(time.Second)),   // at cursor second, 1st of 2 covered
		fixAt(2, t0.Add(time.Second)),   // at cursor second, uncovered vessel
		fixAt(1, t0.Add(time.Second)),   // at cursor second, 2nd of 2 covered
		fixAt(1, t0.Add(2*time.Second)), // past the cursor
		fixAt(1, t0),                    // late fix after catch-up: delivered
	}
	cur := Cursor{Sec: t0.Unix() + 1, SeenAtSec: map[uint32]int{1: 2}}
	rf := NewResumeFilter(stream.NewSliceSource(fixes), cur)
	var got []ais.Fix
	for rf.Scan() {
		got = append(got, rf.Fix())
	}
	want := []ais.Fix{fixes[2], fixes[4], fixes[5]}
	if len(got) != len(want) {
		t.Fatalf("delivered %d fixes %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fix %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if rf.Skipped() != 3 {
		t.Errorf("Skipped() = %d, want 3", rf.Skipped())
	}
	if rf.Err() != nil {
		t.Errorf("Err() = %v", rf.Err())
	}
}

func TestResumeFilterZeroCursorPassesThrough(t *testing.T) {
	fixes := testFixes(5)
	rf := NewResumeFilter(stream.NewSliceSource(fixes), Cursor{})
	n := 0
	for rf.Scan() {
		n++
	}
	if n != len(fixes) || rf.Skipped() != 0 {
		t.Fatalf("zero cursor delivered %d (skipped %d), want all %d", n, rf.Skipped(), len(fixes))
	}
}

type errSource struct{ stream.FixSource }

func (errSource) Err() error { return errors.New("wire broke") }

func TestResumeFilterSurfacesSourceError(t *testing.T) {
	rf := NewResumeFilter(errSource{stream.NewSliceSource(nil)}, Cursor{})
	for rf.Scan() {
	}
	if rf.Err() == nil {
		t.Fatal("Err() lost the wrapped source's error")
	}
}

func TestSeedCursorResumesFirstConnection(t *testing.T) {
	fixes := testFixes(30)
	_, addr, shutdown := startServer(t, fixes, 0)
	defer shutdown()

	// A cursor that has processed the first 10 fixes.
	var cur Cursor
	for _, f := range fixes[:10] {
		cur.Note(f)
	}
	c, err := DialReconnectingFrom(addr, DefaultRetryPolicy(), cur)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []ais.Fix
	for c.Scan() {
		got = append(got, c.Fix())
	}
	if len(got) != 20 {
		t.Fatalf("resumed connection delivered %d fixes, want the 20 after the cursor", len(got))
	}
	if !got[0].Time.Equal(fixes[10].Time) || got[0].MMSI != fixes[10].MMSI {
		t.Errorf("first resumed fix = %+v, want %+v", got[0], fixes[10])
	}
	if ns := c.NetStats(); ns.ResumeSkipped == 0 {
		t.Error("RESUME replay around the cursor skipped nothing")
	}
}
