package critic

import (
	"context"
	"fmt"
	gorun "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sqlast"
)

// chaosExec is a hostile engine for the sandbox: an Injector decides
// per call whether it panics, hangs, or errors; otherwise it succeeds.
// Hung calls block on release until the test lets them go, so leak
// checks can count abandoned goroutines deterministically.
type chaosExec struct {
	inj     *fault.Injector
	kind    fault.Kind
	calls   atomic.Uint64
	parked  atomic.Int64 // Delay calls currently blocked on release
	release chan struct{}
}

func newChaosExec(seed int64, oneIn int, kind fault.Kind) *chaosExec {
	return &chaosExec{
		inj:     fault.NewInjector(seed, oneIn),
		kind:    kind,
		release: make(chan struct{}),
	}
}

func (ce *chaosExec) exec(q *sqlast.Query, budget int) (*engine.Result, error) {
	i := int(ce.calls.Add(1)) - 1
	if !ce.inj.Fires(i) {
		return nil, nil
	}
	switch ce.kind {
	case fault.Panic:
		panic(fmt.Sprintf("injected engine panic at call %d", i))
	case fault.Delay:
		ce.parked.Add(1)
		<-ce.release // hang until the test releases it
		ce.parked.Add(-1)
		return nil, nil
	default:
		return nil, fmt.Errorf("injected engine error at call %d", i)
	}
}

// A panicking engine never escapes the sandbox: the review completes
// with a typed sandbox_error carrying the panic value.
func TestChaosPanicRecovered(t *testing.T) {
	ce := newChaosExec(7, 1, fault.Panic)
	c := newCritic(t, Config{Exec: ce.exec})
	got, out := c.Review(context.Background(), sqlast.MustParse("SELECT name FROM patients"))
	if out.Verdict != VerdictError || got != nil {
		t.Fatalf("verdict = %v (q %v), want sandbox_error and nil", out, got)
	}
	if out.Err == nil || !out.Err.Panicked || !out.Err.Infra() {
		t.Fatalf("Err = %+v, want Panicked infra failure", out.Err)
	}
	if s := c.Snapshot(); s.Sandbox != 1 {
		t.Fatalf("Snapshot = %+v, want 1 sandbox failure", s)
	}
}

// A hung engine is abandoned at the deadline: the review completes with
// a typed timeout, each hang costs exactly one goroutine while it lasts,
// and every abandoned goroutine exits once the engine unblocks — none
// leak past the hang itself.
func TestChaosHangAbandonedNoLeak(t *testing.T) {
	ce := newChaosExec(7, 1, fault.Delay)
	c := newCritic(t, Config{Exec: ce.exec, Timeout: 5 * time.Millisecond})
	before := gorun.NumGoroutine()

	const hangs = 8
	for i := 0; i < hangs; i++ {
		got, out := c.Review(context.Background(), sqlast.MustParse("SELECT name FROM patients"))
		if out.Verdict != VerdictError || got != nil {
			t.Fatalf("hang %d: verdict = %v, want sandbox_error", i, out)
		}
		if out.Err == nil || !out.Err.TimedOut || !out.Err.Infra() {
			t.Fatalf("hang %d: Err = %+v, want TimedOut infra failure", i, out.Err)
		}
	}
	if s := c.Snapshot(); s.Sandbox != hangs {
		t.Fatalf("Snapshot = %+v, want %d sandbox failures", s, hangs)
	}

	// Each abandoned dry-run stays parked in the engine while it hangs.
	// The count is the exec's own, so goroutines of other work starting
	// or exiting meanwhile cannot hide a parked call.
	waitParked := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for ce.parked.Load() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := ce.parked.Load(); got != want {
			t.Fatalf("%d engine calls parked, want %d", got, want)
		}
	}
	waitParked(hangs)
	close(ce.release)
	waitParked(0)
	deadline := time.Now().Add(5 * time.Second)
	for gorun.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := gorun.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines leaked after the hung engine unblocked (baseline %d, now %d)", n-before, before, n)
	}
}

// A wrong-result engine (executes "successfully", returns garbage) is
// beyond the critic's oracle: the candidate passes and the answer still
// flows — the sandbox guards crashes and hangs, not semantics.
func TestChaosWrongResultStillAnswers(t *testing.T) {
	wrong := func(q *sqlast.Query, budget int) (*engine.Result, error) { return nil, nil }
	c := newCritic(t, Config{Exec: wrong})
	q := sqlast.MustParse("SELECT name FROM people_that_do_not_exist")
	// Statically invalid -> repair can't save it; but a statically sound
	// query sails through the lying engine.
	if _, out := c.Review(context.Background(), q); out.Verdict != VerdictInvalid {
		t.Fatalf("verdict = %v, want invalid (static checks still guard)", out)
	}
	ok := sqlast.MustParse("SELECT name FROM patients")
	if got, out := c.Review(context.Background(), ok); out.Verdict != VerdictValid || got != ok {
		t.Fatalf("verdict = %v, want valid pass-through", out)
	}
}

// A sustained storm of injected faults yields a verdict sequence that
// is a pure function of the injector seed: two identical runs agree
// verdict-for-verdict, and every review completes with a typed outcome.
func TestChaosStormDeterministic(t *testing.T) {
	run := func() []string {
		ce := newChaosExec(99, 3, fault.Panic)
		c := newCritic(t, Config{Exec: ce.exec})
		var verdicts []string
		for i := 0; i < 64; i++ {
			_, out := c.Review(context.Background(), sqlast.MustParse("SELECT name FROM patients"))
			verdicts = append(verdicts, out.Verdict.String())
		}
		return verdicts
	}
	a, b := run(), run()
	sawError, sawValid := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged across identical runs: %q vs %q", i, a[i], b[i])
		}
		switch a[i] {
		case "sandbox_error":
			sawError = true
		case "valid":
			sawValid = true
		default:
			t.Fatalf("verdict %d = %q, want valid or sandbox_error only", i, a[i])
		}
	}
	if !sawError || !sawValid {
		t.Fatalf("storm not mixed: sawError=%v sawValid=%v", sawError, sawValid)
	}
}
