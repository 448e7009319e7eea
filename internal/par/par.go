// Package par is the repository's shared concurrency substrate: a
// bounded worker pool sized by runtime.NumCPU, an ordered fan-out /
// fan-in Map, and deterministic seed splitting.
//
// Determinism contract. Every parallel construct in this repository is
// required to produce bit-identical results regardless of the worker
// count (DESIGN.md, "Parallel substrate"). par supports that in two
// ways:
//
//   - Map(workers, n, fn) assigns work by item index, not by worker:
//     fn(i) writes its result into slot i of a caller-owned slice, so
//     the assembled output is in item order no matter which goroutine
//     ran which item, and the worker count only changes wall-clock
//     time, never results.
//   - SplitSeed(base, i) derives the i-th child seed from a base seed
//     with a SplitMix64 mix, so each item (a hyperopt candidate, a
//     fault-injection site) owns an RNG stream that depends only on
//     its index — never on scheduling order or pool size.
//
// Reductions stay deterministic as long as they run in item order on
// the caller's side after Map returns (see internal/eval, which
// aggregates per-question result slots in question order).
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Count resolves a worker-count knob: values <= 0 select
// runtime.NumCPU(), anything else is returned as given. Every -workers
// flag and Workers config field in the repository funnels through this
// so "0 = all cores" means the same thing everywhere.
func Count(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on a bounded pool of at most
// workers goroutines and returns once all calls finished. Items are
// handed out in index order. fn must write any result it produces into
// a caller-owned, index-addressed slot (never append to a shared
// slice), which keeps the assembled output ordered and race-free.
//
// workers <= 1 (or n <= 1) runs inline on the calling goroutine — the
// zero-overhead path that also guarantees the sequential trajectory is
// literally the same code the parallel path runs per item.
//
// A panic inside fn is captured and re-raised on the calling goroutine
// after the pool drains, so callers observe the same crash semantics
// as a sequential loop instead of a process abort from a worker.
func Map(workers, n int, fn func(i int)) {
	// context.Background is never done, so the error is always nil.
	_ = MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is done, no
// further indices are dispatched; calls already in flight run to
// completion, and the context's error is returned. Because indices are
// handed out strictly in order and every dispatched call completes,
// the set of executed indices is always a prefix [0, k) of [0, n) —
// cancellation can shorten the prefix but never punch holes in it, at
// any worker count. A nil return means all n calls ran.
//
// Panic semantics match Map: a panic inside fn is captured and
// re-raised on the calling goroutine after the pool drains.
func MapCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Count(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	done := ctx.Done()
	var stopped error
feed:
	for i := 0; i < n; i++ {
		// Checked before the select so a done context always wins over
		// a ready worker (select chooses randomly among ready cases).
		if err := ctx.Err(); err != nil {
			stopped = err
			break
		}
		select {
		case <-done:
			stopped = ctx.Err()
			break feed
		case idx <- i:
		}
	}
	close(idx)
	// Bounded: close(idx) above ends every worker's range loop, and a
	// cancelled ctx stops feeding first, so this join finishes as soon
	// as in-flight items do.
	wg.Wait() //lint:allow ctxdrop workers exit once idx is closed (closed on every path above); the join is bounded by in-flight work
	if panicked != nil {
		panic(fmt.Sprintf("par: worker panic: %v", panicked))
	}
	return stopped
}

// ErrDeadline is returned by Await when fn is still running at
// expiry.
var ErrDeadline = fmt.Errorf("par: deadline exceeded")

// Await runs fn on its own goroutine and waits for it to finish or for
// ctx to be done, whichever comes first. It returns nil when fn
// completed, ErrDeadline when ctx expired first. A panic in fn is
// re-raised on the caller when the caller is still waiting.
//
// When ctx wins, fn keeps running on its abandoned goroutine until it
// returns on its own (there is no way to preempt it); its eventual
// panic, if any, is swallowed. Callers use this to put a hard bound on
// an uncooperative plug-in — a misbehaving model must cost at most one
// leaked goroutine, never a hung process.
//
// A ctx that can never be done (no Done channel) cannot end the wait,
// so fn then runs inline on the caller's goroutine.
func Await(ctx context.Context, fn func()) error {
	if ctx.Done() == nil {
		fn()
		return nil
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		if r != nil {
			panic(r)
		}
		return nil
	case <-ctx.Done():
		return ErrDeadline
	}
}

// SplitSeed derives the i-th child seed from base using a SplitMix64
// finalizer over base and index. Child streams are decorrelated from
// each other and from the base stream, and the derivation depends only
// on (base, i) — not on worker count or scheduling — so seeded
// parallel stages reproduce bit-identically at any pool size.
func SplitSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(i)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
