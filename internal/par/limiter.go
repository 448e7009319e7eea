package par

import "context"

// Limiter is a counting semaphore: a fixed number of slots that
// callers acquire before entering a bounded section and release on the
// way out. It is the admission-control primitive beneath the serving
// layer — the worker pool bounds *batch* parallelism by index
// assignment, the Limiter bounds *request* parallelism by slot
// ownership.
//
// The implementation is a buffered channel, so it composes with
// context cancellation without spawning any goroutines, and a slot
// released by one goroutine is immediately acquirable by another.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter with n slots; n <= 0 selects
// runtime.NumCPU via Count, matching every other worker knob in the
// repository.
func NewLimiter(n int) *Limiter {
	return &Limiter{slots: make(chan struct{}, Count(n))}
}

// InUse returns the number of currently held slots. The value is a
// snapshot: it can be stale by the time the caller looks at it, which
// is fine for load reporting and never used for admission decisions.
func (l *Limiter) InUse() int { return len(l.slots) }

// TryAcquire takes a slot if one is free, without blocking.
func (l *Limiter) TryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case. A nil return means the caller holds a slot
// and must Release it.
func (l *Limiter) Acquire(ctx context.Context) error {
	// Checked first so a done context never wins a free slot (select
	// chooses randomly among ready cases).
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot. Releasing more than was acquired is a
// programming error and panics rather than silently widening the
// limit.
func (l *Limiter) Release() {
	select {
	case <-l.slots:
	default:
		panic("par: Limiter.Release without a matching Acquire")
	}
}
