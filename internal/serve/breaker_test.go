package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

// fakeClock is a manually advanced clock; breaker transitions under it
// are fully deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:      8,
		MinSamples:  4,
		FailureRate: 0.5,
		Cooldown:    10 * time.Second,
		Now:         clk.Now,
	})
}

var errTier = errors.New("tier failed")

// TestBreakerTripsAtFailureRate: closed until the window shows the
// configured failure rate over at least MinSamples, then open.
func TestBreakerTripsAtFailureRate(t *testing.T) {
	b := testBreaker(newFakeClock())
	// Three straight failures: below MinSamples, still closed.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		b.Record(errTier)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 3 failures = %v, want closed (MinSamples not reached)", got)
	}
	// The fourth failure reaches MinSamples at 100% failure rate.
	b.Record(errTier)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 4 failures = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a request: %v", err)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after a rejected Allow = %v, want still open", got)
	}
}

// TestBreakerStaysClosedBelowRate: a minority of failures never trips.
func TestBreakerStaysClosedBelowRate(t *testing.T) {
	b := testBreaker(newFakeClock())
	for i := 0; i < 40; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		if i%4 == 0 { // 1/4 failure rate: below 0.5 in every window prefix
			b.Record(errTier)
		} else {
			b.Record(nil)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed at 1/4 failure rate", got)
	}
}

// TestBreakerHalfOpenProbeSuccessCloses: after the cooldown, exactly
// one probe is admitted; its success closes the circuit with a clean
// window.
func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		b.Record(errTier)
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker not open")
	}
	// Mid-cooldown: still rejecting.
	clk.Advance(9 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("mid-cooldown Allow = %v, want open", err)
	}
	// Cooldown over: the first Allow is the probe, the second is not.
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second caller admitted during probe: %v", err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	// The window restarted: one failure does not immediately re-trip.
	b.Record(errTier)
	if b.State() != BreakerClosed {
		t.Fatal("stale window survived the reset")
	}
}

// TestBreakerHalfOpenProbeFailureReopens: a failed probe re-opens and
// restarts the cooldown.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		b.Record(errTier)
	}
	clk.Advance(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state with the probe in flight = %v, want half-open", b.State())
	}
	b.Record(errTier)
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	// The cooldown restarted at the probe failure.
	clk.Advance(9 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown did not restart: %v", err)
	}
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe not admitted: %v", err)
	}
}

// TestBreakerLateResultWhileOpenIgnored: an outcome arriving after the
// trip (a request admitted before it) does not perturb the machine.
func TestBreakerLateResultWhileOpenIgnored(t *testing.T) {
	b := testBreaker(newFakeClock())
	for i := 0; i < 4; i++ {
		b.Record(errTier)
	}
	b.Record(nil) // late success from a pre-trip request
	if b.State() != BreakerOpen {
		t.Fatalf("late result changed state to %v", b.State())
	}
}

// TestBreakerConcurrentDeterministic: hammer Allow/Record from many
// goroutines under -race; with a constant failure outcome the machine
// must end open, exactly one probe wins after cooldown, and counters
// stay consistent at any interleaving.
func TestBreakerConcurrentDeterministic(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	const workers = 8
	results := make([]int, workers) // 1 = admitted
	par.Map(workers, workers, func(i int) {
		for j := 0; j < 50; j++ {
			if b.Allow() == nil {
				b.Record(errTier)
			}
		}
	})
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after saturation with failures", b.State())
	}
	clk.Advance(11 * time.Second)
	par.Map(workers, workers, func(i int) {
		if b.Allow() == nil {
			results[i] = 1
		}
	})
	admitted := 0
	for _, r := range results {
		admitted += r
	}
	if admitted != 1 {
		t.Fatalf("half-open admitted %d probes, want exactly 1", admitted)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after probe success", b.State())
	}
}

// TestTierBreakersIsolatePerTier: one tier tripping does not gate
// another, and States names every tier seen.
func TestTierBreakersIsolatePerTier(t *testing.T) {
	tb := NewBreakers(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour, Now: newFakeClock().Now})
	for i := 0; i < 2; i++ {
		tb.Record("primary", errTier)
	}
	tb.Record("fallback", nil)
	if err := tb.Allow("primary"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped tier admitted: %v", err)
	}
	if err := tb.Allow("fallback"); err != nil {
		t.Fatalf("healthy tier rejected: %v", err)
	}
	states := tb.States()
	if states["primary"] != "open" || states["fallback"] != "closed" {
		t.Fatalf("States = %v", states)
	}
}

// TestBreakerStateStrings pins the /statsz state names.
func TestBreakerStateStrings(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed": BreakerClosed, "open": BreakerOpen, "half-open": BreakerHalfOpen,
	} {
		if got := s.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
	if got := BreakerState(9).String(); got != fmt.Sprintf("state(%d)", 9) {
		t.Fatalf("unknown state renders %q", got)
	}
}
