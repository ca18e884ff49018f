package checkpoint

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// testdata/per-fix-cursor holds the checkpoints an earlier build wrote
// (commit 7c66101, which noted the resume cursor one fix at a time) when
// it ran cursorStream through writeCursorCheckpoints.
const perFixCursorDir = "testdata/per-fix-cursor"

// cursorStream is a fix stream whose every slide ends on a second that
// several vessels share, two of them with more than one fix at it, so
// each checkpoint's cursor carries per-vessel counts above one.
func cursorStream() []ais.Fix {
	t0 := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	var fixes []ais.Fix
	add := func(mmsi uint32, at time.Duration) {
		fixes = append(fixes, ais.Fix{
			MMSI: mmsi,
			Pos:  geo.Point{Lon: 24 + float64(mmsi%7)/10, Lat: 37 + float64(at/time.Second%600)/6000},
			Time: t0.Add(at),
		})
	}
	for s := 0; s < 5; s++ {
		start := time.Duration(s) * testSlide
		for i := 0; i < 30; i++ {
			add(237000000+uint32(i%6), start+time.Duration(i)*17*time.Second)
		}
		// The slide's last second: vessels 1 and 2 twice, 3 three times.
		last := start + testSlide - time.Second
		for _, m := range []uint32{1, 2, 3, 1, 3, 2, 3, 4} {
			add(237000000+m, last)
		}
	}
	return fixes
}

// cursorPipeline runs nothing: the test compares only resume state.
type cursorPipeline struct{}

func (cursorPipeline) Track(stream.Batch) {}
func (cursorPipeline) ProcessTracked(func() (stream.Batch, bool)) core.SlideReport {
	return core.SlideReport{}
}

// cursorSystem is the idle system the checkpoints snapshot: the
// pipeline above never feeds it.
func cursorSystem() *core.System {
	return core.NewSystem(core.Config{
		Window:        stream.WindowSpec{Range: time.Hour, Slide: testSlide},
		Tracker:       tracker.DefaultParams(),
		TrackerShards: 1,
	}, nil, nil, nil)
}

// writeCursorCheckpoints runs cursorStream through Run, checkpointing
// after every slide into dir.
func writeCursorCheckpoints(t *testing.T, dir string) {
	t.Helper()
	sys := cursorSystem()
	defer sys.Close()
	mgr, err := NewManager(Options{Dir: dir, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Restore(RunConfig{System: sys, Checkpoints: mgr, Every: 1, Slide: testSlide})
	if err != nil {
		t.Fatal(err)
	}
	run.Ingest(stream.NewSliceSource(cursorStream()), nil, 0)
	if _, err := run.Slides(context.Background(), Loop{Pipeline: cursorPipeline{}}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorMatchesEarlierBuildCheckpoints runs the same stream as the
// earlier build and compares every checkpoint's resume state with the
// one that build wrote, then restores the earlier build's newest
// checkpoint: the cursor must come back identical. (Equal as values:
// gob writes a map's entries in random order, so equal cursors need
// not encode to the same bytes.)
func TestCursorMatchesEarlierBuildCheckpoints(t *testing.T) {
	dir := t.TempDir()
	writeCursorCheckpoints(t, dir)
	got, err := NewManager(Options{Dir: dir, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	files, err := os.ReadDir(perFixCursorDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(perFixCursorDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(old, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := NewManager(Options{Dir: old, Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq() != want.LastSeq() || got.LastSeq() < 5 {
		t.Fatalf("%d checkpoints, the earlier build wrote %d (want at least 5)", got.LastSeq(), want.LastSeq())
	}
	var multi bool
	for seq := uint64(1); seq <= want.LastSeq(); seq++ {
		g, err := got.LoadAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.LoadAt(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Query.Equal(w.Query) || g.Slides != w.Slides || !reflect.DeepEqual(g.Cursor, w.Cursor) {
			t.Errorf("checkpoint %d: query %s slides %d cursor %+v, the earlier build wrote %s %d %+v",
				seq, g.Query, g.Slides, g.Cursor, w.Query, w.Slides, w.Cursor)
		}
		for _, n := range w.Cursor.SeenAtSec {
			multi = multi || n > 1
		}
	}
	if !multi {
		t.Error("no checkpoint counts a vessel twice at its cursor second: the stream does not exercise the counts")
	}

	// Restore the earlier build's newest checkpoint as cmd/serve does.
	sys := cursorSystem()
	defer sys.Close()
	run, err := Restore(RunConfig{System: sys, Checkpoints: want, Every: 1, Slide: testSlide})
	if err != nil {
		t.Fatal(err)
	}
	newest, err := got.LoadAt(got.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if c := run.Cursor(); !reflect.DeepEqual(c, newest.Cursor) {
		t.Errorf("restored cursor %+v, this build's newest checkpoint holds %+v", c, newest.Cursor)
	}
}
