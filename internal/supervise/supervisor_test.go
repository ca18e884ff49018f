package supervise

import (
	"errors"
	"testing"
	"time"
)

// fakeHealer scripts a Healer: each target heals after a configured
// number of failures.
type fakeHealer struct {
	quarantined map[string]bool
	failLeft    map[string]int
	heals       []string
	abandons    []string
}

func newFakeHealer() *fakeHealer {
	return &fakeHealer{quarantined: map[string]bool{}, failLeft: map[string]int{}}
}

func (f *fakeHealer) Quarantined() []Quarantine {
	var out []Quarantine
	for t := range f.quarantined {
		out = append(out, Quarantine{Target: t, Cause: "panic"})
	}
	return out
}

func (f *fakeHealer) Heal(target string) error {
	f.heals = append(f.heals, target)
	if f.failLeft[target] > 0 {
		f.failLeft[target]--
		return errors.New("replay panicked again")
	}
	delete(f.quarantined, target)
	return nil
}

func (f *fakeHealer) Abandon(target string) {
	f.abandons = append(f.abandons, target)
	delete(f.quarantined, target)
}

func TestSupervisorHealsImmediatelyOnFirstObservation(t *testing.T) {
	h := newFakeHealer()
	h.quarantined["tracker/1"] = true
	h.quarantined["recognizer"] = true
	sup := New(h, Policy{})

	if healed := sup.Poll(); healed != 2 {
		t.Fatalf("Poll healed %d targets, want 2", healed)
	}
	if len(h.quarantined) != 0 {
		t.Errorf("targets left quarantined: %v", h.quarantined)
	}
	if st := sup.Stats(); st.Repairs != 2 || st.Failures != 0 || st.GiveUps != 0 {
		t.Errorf("stats = %+v, want 2 repairs", st)
	}
	// Deterministic order: sorted by target.
	if len(h.heals) != 2 || h.heals[0] != "recognizer" || h.heals[1] != "tracker/1" {
		t.Errorf("heal order = %v", h.heals)
	}
}

func TestSupervisorExponentialBackoff(t *testing.T) {
	h := newFakeHealer()
	h.quarantined["store"] = true
	h.failLeft["store"] = 3

	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sup := New(h, Policy{InitialBackoff: time.Second, Multiplier: 2, MaxBackoff: time.Minute, GiveUpAfter: 10})
	sup.SetClock(func() time.Time { return clock })

	// Attempt 1 fails; next try is 1s out.
	sup.Poll()
	if len(h.heals) != 1 {
		t.Fatalf("heal attempts: %d, want 1", len(h.heals))
	}
	// Polling again before the backoff elapses must not retry.
	clock = clock.Add(500 * time.Millisecond)
	sup.Poll()
	if len(h.heals) != 1 {
		t.Fatalf("retried during backoff: %d attempts", len(h.heals))
	}
	// Attempt 2 at +1s fails; backoff doubles to 2s.
	clock = clock.Add(500 * time.Millisecond)
	sup.Poll()
	if len(h.heals) != 2 {
		t.Fatalf("heal attempts: %d, want 2", len(h.heals))
	}
	clock = clock.Add(1900 * time.Millisecond)
	sup.Poll()
	if len(h.heals) != 2 {
		t.Fatalf("retried before doubled backoff: %d attempts", len(h.heals))
	}
	// Attempt 3 fails (backoff 4s), attempt 4 succeeds.
	clock = clock.Add(100 * time.Millisecond)
	sup.Poll()
	clock = clock.Add(4 * time.Second)
	if healed := sup.Poll(); healed != 1 {
		t.Fatalf("final attempt should heal, got %d", healed)
	}
	if st := sup.Stats(); st.Repairs != 1 || st.Failures != 3 {
		t.Errorf("stats = %+v, want 1 repair / 3 failures", st)
	}
}

func TestSupervisorBackoffCap(t *testing.T) {
	p := Policy{InitialBackoff: time.Second, Multiplier: 3, MaxBackoff: 5 * time.Second}.withDefaults()
	if d := p.backoff(1); d != time.Second {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := p.backoff(2); d != 3*time.Second {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := p.backoff(3); d != 5*time.Second {
		t.Errorf("backoff(3) should cap at 5s, got %v", d)
	}
	if d := p.backoff(50); d != 5*time.Second {
		t.Errorf("backoff(50) should cap at 5s, got %v", d)
	}
}

func TestSupervisorGivesUp(t *testing.T) {
	h := newFakeHealer()
	h.quarantined["recognizer"] = true
	h.failLeft["recognizer"] = 100

	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sup := New(h, Policy{InitialBackoff: time.Millisecond, MaxBackoff: time.Millisecond, GiveUpAfter: 3})
	sup.SetClock(func() time.Time { return clock })

	for i := 0; i < 10; i++ {
		sup.Poll()
		clock = clock.Add(time.Second)
	}
	if len(h.heals) != 3 {
		t.Errorf("heal attempts = %d, want exactly GiveUpAfter=3", len(h.heals))
	}
	if len(h.abandons) != 1 || h.abandons[0] != "recognizer" {
		t.Errorf("abandons = %v, want [recognizer]", h.abandons)
	}
	st := sup.Stats()
	if st.GiveUps != 1 || st.Failures != 3 || st.Repairs != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The abandoned target left Quarantined; further polls are no-ops.
	sup.Poll()
	if len(h.abandons) != 1 {
		t.Errorf("abandoned twice: %v", h.abandons)
	}
}

func TestSupervisorPrunesExternallyHealedTargets(t *testing.T) {
	h := newFakeHealer()
	h.quarantined["tracker/0"] = true
	h.failLeft["tracker/0"] = 100

	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sup := New(h, Policy{InitialBackoff: time.Hour, GiveUpAfter: 10})
	sup.SetClock(func() time.Time { return clock })
	sup.Poll() // one failure, long backoff pending

	// An operator restores a checkpoint: the target leaves the
	// quarantined set without the supervisor's help.
	delete(h.quarantined, "tracker/0")
	sup.Poll()

	// The same target quarantines again later: its ledger must have been
	// pruned, so the first repair attempt is immediate despite the
	// pending hour-long backoff from the previous incident.
	h.quarantined["tracker/0"] = true
	h.failLeft["tracker/0"] = 0
	if healed := sup.Poll(); healed != 1 {
		t.Fatalf("fresh quarantine not repaired immediately: healed=%d", healed)
	}
}
