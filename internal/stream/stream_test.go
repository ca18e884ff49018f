package stream

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

var t0 = time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)

// fixAt builds a fix for MMSI m at t0+offset.
func fixAt(m uint32, offset time.Duration) ais.Fix {
	return ais.Fix{MMSI: m, Pos: geo.Point{Lon: 24, Lat: 38}, Time: t0.Add(offset)}
}

func TestWindowSpecValidate(t *testing.T) {
	if err := (WindowSpec{Range: time.Hour, Slide: time.Minute}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (WindowSpec{Range: 0, Slide: time.Minute}).Validate(); !errors.Is(err, ErrNonPositiveRange) {
		t.Errorf("zero range: %v", err)
	}
	if err := (WindowSpec{Range: time.Hour, Slide: -1}).Validate(); !errors.Is(err, ErrNonPositiveSlide) {
		t.Errorf("negative slide: %v", err)
	}
}

func TestInstanceCovers(t *testing.T) {
	spec := WindowSpec{Range: time.Hour, Slide: 10 * time.Minute}
	in := Instance{Query: t0.Add(2 * time.Hour), Spec: spec}
	if in.Covers(t0.Add(time.Hour)) {
		t.Error("start bound should be exclusive")
	}
	if !in.Covers(t0.Add(time.Hour + time.Nanosecond)) {
		t.Error("just inside the window not covered")
	}
	if !in.Covers(t0.Add(2 * time.Hour)) {
		t.Error("query time itself should be covered (right-closed)")
	}
	if in.Covers(t0.Add(2*time.Hour + time.Second)) {
		t.Error("future tuple covered")
	}
	next := in.Next()
	if !next.Query.Equal(t0.Add(2*time.Hour + 10*time.Minute)) {
		t.Errorf("Next query = %v", next.Query)
	}
}

func TestBatcherAssignsBySlideInterval(t *testing.T) {
	fixes := []ais.Fix{
		fixAt(1, 30*time.Second),
		fixAt(2, 90*time.Second),
		fixAt(3, 119*time.Second),
		fixAt(4, 241*time.Second), // skips one full slide (120–180 s empty? no: (120,180] has nothing, (180,240] nothing, 241 in (240,300])
	}
	b := NewBatcher(NewSliceSource(fixes), time.Minute)

	var batches []Batch
	for {
		batch, ok := b.Next()
		if !ok {
			break
		}
		batches = append(batches, batch)
	}
	// Expected query times: 1min (fix1), 2min (fix2, fix3), 3min (empty),
	// 4min (empty), 5min (fix4).
	if len(batches) != 5 {
		t.Fatalf("got %d batches, want 5", len(batches))
	}
	counts := []int{1, 2, 0, 0, 1}
	for i, want := range counts {
		if len(batches[i].Fixes) != want {
			t.Errorf("batch %d has %d fixes, want %d", i, len(batches[i].Fixes), want)
		}
		wantQ := t0.Add(time.Duration(i+1) * time.Minute)
		if !batches[i].Query.Equal(wantQ) {
			t.Errorf("batch %d query = %v, want %v", i, batches[i].Query, wantQ)
		}
	}
}

func TestBatcherPreservesEveryFix(t *testing.T) {
	f := func(offsets []uint16) bool {
		fixes := make([]ais.Fix, len(offsets))
		// Build a sorted stream from random offsets.
		cur := time.Duration(0)
		for i, o := range offsets {
			cur += time.Duration(o%300) * time.Second
			fixes[i] = fixAt(uint32(i), cur)
		}
		b := NewBatcher(NewSliceSource(fixes), 5*time.Minute)
		total := 0
		for {
			batch, ok := b.Next()
			if !ok {
				break
			}
			for _, fx := range batch.Fixes {
				if fx.Time.After(batch.Query) {
					return false // fix later than its batch's query time
				}
			}
			total += len(batch.Fixes)
		}
		return total == len(fixes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatcherEmptyStream(t *testing.T) {
	b := NewBatcher(NewSliceSource(nil), time.Minute)
	if _, ok := b.Next(); ok {
		t.Error("empty stream yielded a batch")
	}
}

func TestBatcherPanicsOnBadSlide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for slide <= 0")
		}
	}()
	NewBatcher(NewSliceSource(nil), 0)
}

func TestCountBatcher(t *testing.T) {
	fixes := make([]ais.Fix, 10)
	for i := range fixes {
		fixes[i] = fixAt(uint32(i), time.Duration(i)*time.Second)
	}
	cb := NewCountBatcher(NewSliceSource(fixes), 4, time.Minute, t0)
	var sizes []int
	var queries []time.Time
	for {
		batch, ok := cb.Next()
		if !ok {
			break
		}
		sizes = append(sizes, len(batch.Fixes))
		queries = append(queries, batch.Query)
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Errorf("sizes = %v, want [4 4 2]", sizes)
	}
	if !queries[0].Equal(t0.Add(time.Minute)) || !queries[2].Equal(t0.Add(3*time.Minute)) {
		t.Errorf("queries = %v", queries)
	}
}

func TestSliceSourceReset(t *testing.T) {
	src := NewSliceSource([]ais.Fix{fixAt(1, 0), fixAt(2, time.Second)})
	n := 0
	for src.Scan() {
		n++
	}
	src.Reset()
	for src.Scan() {
		n++
	}
	if n != 4 {
		t.Errorf("scanned %d fixes across reset, want 4", n)
	}
}

func TestDelayerDeterministicAndComplete(t *testing.T) {
	fixes := make([]ais.Fix, 100)
	for i := range fixes {
		fixes[i] = fixAt(uint32(i), time.Duration(i)*time.Minute)
	}
	d := Delayer{MaxDelay: 30 * time.Minute, Fraction: 0.3, Seed: 5}
	out1 := d.Apply(fixes)
	out2 := d.Apply(fixes)
	if len(out1) != len(fixes) {
		t.Fatalf("lost fixes: %d", len(out1))
	}
	for i := range out1 {
		if out1[i].MMSI != out2[i].MMSI {
			t.Fatal("Delayer not deterministic")
		}
	}
	// Occurrence timestamps must be untouched.
	seen := make(map[uint32]time.Time)
	for _, f := range out1 {
		seen[f.MMSI] = f.Time
	}
	for _, f := range fixes {
		if !seen[f.MMSI].Equal(f.Time) {
			t.Fatalf("occurrence time of %d changed", f.MMSI)
		}
	}
	// With a 30-minute max delay and 1-minute spacing some inversions
	// must occur.
	inversions := 0
	for i := 1; i < len(out1); i++ {
		if out1[i].Time.Before(out1[i-1].Time) {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("Delayer produced no out-of-order deliveries")
	}
}

func TestDelayerZeroConfigIsIdentity(t *testing.T) {
	fixes := []ais.Fix{fixAt(1, 0), fixAt(2, time.Minute), fixAt(3, 2*time.Minute)}
	out := Delayer{}.Apply(fixes)
	for i := range out {
		if out[i].MMSI != fixes[i].MMSI {
			t.Fatal("zero-config Delayer reordered the stream")
		}
	}
}

func TestCollect(t *testing.T) {
	fixes := []ais.Fix{fixAt(1, 0), fixAt(2, time.Second)}
	got, err := Collect(NewSliceSource(fixes))
	if err != nil || len(got) != 2 {
		t.Errorf("Collect = %d fixes, err %v", len(got), err)
	}
}
