package supervise

import "testing"

// TestJournalSpare checks the recycling contract: Spare hands back the
// slide a re-base dropped from the slot the next Append fills, never a
// slide still in the journal, and nothing at the retention cap, where
// Append evicts instead.
func TestJournalSpare(t *testing.T) {
	j := NewJournal[int, []int](0, 2)
	if s := j.Spare(); s != nil {
		t.Fatalf("fresh journal: Spare = %v, want nil", s)
	}
	j.Append([]int{1})
	j.Append([]int{2, 2})
	j.Rebase(1)
	for k, want := range [][]int{{1}, {2, 2}} {
		s := j.Spare()
		if len(s) != len(want) || s[0] != want[0] {
			t.Fatalf("slot %d: Spare = %v, want the dropped %v", k, s, want)
		}
		j.Append(append(s[:0], 10+k))
	}
	if j.Slides[0][0] != 10 || j.Slides[1][0] != 11 {
		t.Fatalf("recycled slides %v, want [[10] [11]]", j.Slides)
	}

	// Fill to the cap: a slot Append has never reached is empty, and the
	// slide evicted at the cap is returned, not recycled.
	for len(j.Slides) < RetainCadences*2 {
		j.Append([]int{len(j.Slides)})
	}
	if s := j.Spare(); s != nil {
		t.Fatalf("full journal: Spare = %v, want nil", s)
	}
	old, evicted := j.Append([]int{99})
	if !evicted || old[0] != 10 {
		t.Fatalf("Append at the cap evicted %v (%v), want [10]", old, evicted)
	}
	seen := map[*int]bool{}
	for _, sl := range j.Slides {
		if seen[&sl[0]] {
			t.Fatalf("two journaled slides share a buffer: %v", j.Slides)
		}
		seen[&sl[0]] = true
	}
}
