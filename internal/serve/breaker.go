package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/runtime"
)

// ErrBreakerOpen is the sentinel inside every open-circuit rejection,
// so callers can errors.Is for it through the runtime's wrapping.
var ErrBreakerOpen = errors.New("serve: circuit open")

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: requests flow; outcomes feed the failure window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome
	// decides between Closed and Open.
	BreakerHalfOpen
)

// String names the state for /statsz and error messages.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// BreakerConfig parameterizes one breaker. The zero value is filled
// with the defaults below.
type BreakerConfig struct {
	// Window is the size of the rolling outcome window (default 16).
	Window int
	// MinSamples is the minimum number of recorded outcomes before
	// the failure rate is considered meaningful (default 4).
	MinSamples int
	// FailureRate in [0,1] trips the breaker when reached over the
	// window with at least MinSamples outcomes (default 0.5).
	FailureRate float64
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Now is the clock; the tests inject a fake one, production uses
	// the wall clock.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now //lint:allow determinism the breaker cooldown is wall-clock by nature; tests inject a fake clock
	}
	return c
}

// Breaker is a thread-safe circuit breaker over a rolling outcome
// window. Closed, it counts failures; at FailureRate over the window
// it opens and rejects immediately — a persistently failing or slow
// tier stops costing its deadline on every request. After Cooldown it
// admits exactly one probe (half-open); the probe's outcome closes or
// re-opens the circuit. All transitions are driven by the injected
// clock, never by background goroutines, so a fake clock makes every
// transition deterministic in tests.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	outcomes []bool // ring buffer of recent results, true = failure
	next     int    // ring write position
	filled   int    // occupied ring slots
	openedAt time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, outcomes: make([]bool, cfg.Window)}
}

// Allow reports whether a request may proceed. It returns nil when the
// circuit is closed or the caller won the half-open probe slot, and an
// error wrapping ErrBreakerOpen otherwise.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		// A probe is already in flight; everyone else keeps waiting.
		return fmt.Errorf("%w (probe in flight)", ErrBreakerOpen)
	default:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return fmt.Errorf("%w (cooling down)", ErrBreakerOpen)
		}
		// Cooldown over: this caller becomes the half-open probe.
		b.state = BreakerHalfOpen
		return nil
	}
}

// Record feeds one outcome (err != nil = failure) into the machine.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	failed := err != nil
	if b.state == BreakerHalfOpen {
		if failed {
			b.open()
		} else {
			b.reset()
		}
		return
	}
	if b.state == BreakerOpen {
		// A request admitted before the trip finishing late; its
		// outcome no longer matters.
		return
	}
	b.outcomes[b.next] = failed
	b.next = (b.next + 1) % len(b.outcomes)
	if b.filled < len(b.outcomes) {
		b.filled++
	}
	if b.filled < b.cfg.MinSamples {
		return
	}
	failures := 0
	for i := 0; i < b.filled; i++ {
		if b.outcomes[i] {
			failures++
		}
	}
	if float64(failures)/float64(b.filled) >= b.cfg.FailureRate {
		b.open()
	}
}

// open transitions to Open and starts the cooldown (caller holds mu).
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.clearWindow()
}

// reset transitions to Closed with an empty window (caller holds mu).
func (b *Breaker) reset() {
	b.state = BreakerClosed
	b.clearWindow()
}

func (b *Breaker) clearWindow() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.next, b.filled = 0, 0
}

// State returns the current state without advancing it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ---------------------------------------------------------------------
// Per-stage breaker set, pluggable as a runtime.Hook.
// ---------------------------------------------------------------------

// Breakers lazily maintains one Breaker per stage the runtime reports
// — each translator tier by name, and the critic as
// runtime.CriticStage — and implements runtime.Hook. A tier whose
// breaker is open is skipped by the degradation chain without paying
// its deadline; while the critic's is open, answers skip validation.
// Each stage's window counts only its infrastructure failures, never
// a question the model could not translate.
type Breakers struct {
	cfg BreakerConfig

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakers returns an empty set; breakers are created on first
// contact with a stage name.
func NewBreakers(cfg BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg.withDefaults(), m: map[string]*Breaker{}}
}

var _ runtime.Hook = (*Breakers)(nil)

func (tb *Breakers) breaker(name string) *Breaker {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b, ok := tb.m[name]
	if !ok {
		b = NewBreaker(tb.cfg)
		tb.m[name] = b
	}
	return b
}

// Allow implements runtime.Hook.
func (tb *Breakers) Allow(name string) error { return tb.breaker(name).Allow() }

// Record implements runtime.Hook.
func (tb *Breakers) Record(name string, infra error) { tb.breaker(name).Record(infra) }

// States snapshots every known stage's state name, sorted by name for
// a deterministic /statsz rendering.
func (tb *Breakers) States() map[string]string {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	names := make([]string, 0, len(tb.m))
	for name := range tb.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]string, len(names))
	for _, name := range names {
		out[name] = tb.m[name].State().String()
	}
	return out
}
