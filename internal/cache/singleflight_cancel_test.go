package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count returns to the
// baseline, failing the test if leaked goroutines remain (same
// discipline as the serve chaos suite).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestSingleflightLeaderCancelled is the core cancellation contract:
// the leader's request is cancelled mid-decode, and a waiter must be
// promoted to a fresh leader (the miss retried) rather than inheriting
// the cancellation — and the key must never end up stuck. Run with
// -race.
func TestSingleflightLeaderCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := New[string](Config{Capacity: 8})

	var cancelledLoads, goodLoads atomic.Int64
	// Leader entered the loader. Buffered, so the leader's signal is
	// kept even if it reaches the loader before the test waits for it.
	inLoad := make(chan struct{}, 1)
	leaderCtx, cancel := context.WithCancel(context.Background())
	loader := func(ctx context.Context) (string, error) {
		select {
		case inLoad <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			// Mid-decode cancellation: the model call aborts.
			cancelledLoads.Add(1)
			return "", ctx.Err()
		case <-time.After(50 * time.Millisecond):
			goodLoads.Add(1)
			return "sql", nil
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var leadOut Outcome
	var leadErr error
	go func() {
		defer wg.Done()
		_, leadOut, leadErr = c.Do(leaderCtx, "q", loader)
	}()
	<-inLoad // the flight exists and its leader is inside the loader

	const waiters = 6
	wg.Add(waiters)
	errs := make([]error, waiters)
	vals := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Do(context.Background(), "q", loader)
		}(i)
	}

	// Kill the leader mid-decode.
	cancel()
	wg.Wait()

	if leadOut != Miss || !errors.Is(leadErr, context.Canceled) {
		t.Fatalf("cancelled leader = (%v, %v), want miss + context.Canceled", leadOut, leadErr)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil || vals[i] != "sql" {
			t.Fatalf("waiter %d = (%q, %v), want promoted to the real answer", i, vals[i], errs[i])
		}
	}
	if cancelledLoads.Load() != 1 {
		t.Fatalf("cancelled loads = %d, want exactly 1 (the dead leader)", cancelledLoads.Load())
	}
	if goodLoads.Load() != 1 {
		t.Fatalf("successful loads = %d, want exactly 1 (the promoted waiter)", goodLoads.Load())
	}

	// Never a stuck key: a fresh Do with a tight deadline must resolve
	// from cache immediately.
	ctx, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	v, o, err := c.Do(ctx, "q", func(context.Context) (string, error) {
		return "", errors.New("must not run: value is cached")
	})
	if err != nil || v != "sql" || o != Hit {
		t.Fatalf("post-promotion Do = (%q, %v, %v), want immediate hit", v, o, err)
	}
	waitForGoroutines(t, baseline)
}

// TestSingleflightAllCancelled: even when the leader and every waiter
// are cancelled, the key is released — the next caller becomes a clean
// leader and succeeds.
func TestSingleflightAllCancelled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := New[string](Config{Capacity: 8})
	ctx, cancel := context.WithCancel(context.Background())
	inLoad := make(chan struct{}, 1) // buffered, as in TestSingleflightLeaderCancelled

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.Do(ctx, "q", func(ctx context.Context) (string, error) {
				select {
				case inLoad <- struct{}{}:
				default:
				}
				<-ctx.Done()
				return "", ctx.Err()
			})
		}()
	}
	<-inLoad
	cancel()
	wg.Wait()

	v, o, err := c.Do(context.Background(), "q", func(context.Context) (string, error) {
		return "fresh", nil
	})
	if err != nil || v != "fresh" || o != Miss {
		t.Fatalf("post-wipeout Do = (%q, %v, %v), want clean miss", v, o, err)
	}
	waitForGoroutines(t, baseline)
}

// TestSingleflightCancellationStorm hammers the leader-cancellation
// path: many rounds of a cancelled leader racing live waiters across
// several keys. Under -race this shakes out flight lifecycle bugs; the
// invariant is that every live caller always lands on a value.
func TestSingleflightCancellationStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := New[string](Config{Capacity: 256})
	const rounds, callers = 20, 8

	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("q%d", round%5)
		want := "sql-" + key
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			cctx := context.Background()
			if i == 0 {
				cctx = ctx // one caller per round gets cancelled
			}
			go func(cctx context.Context) {
				defer wg.Done()
				v, _, err := c.Do(cctx, key, func(lctx context.Context) (string, error) {
					select {
					case <-lctx.Done():
						return "", lctx.Err()
					case <-time.After(time.Millisecond):
						return want, nil
					}
				})
				if err == nil && v != want {
					t.Errorf("round %d: got %q, want %q", round, v, want)
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("round %d: unexpected error %v", round, err)
				}
			}(cctx)
		}
		cancel()
		wg.Wait()
		// The key must be reachable regardless of who won the races.
		v, _, err := c.Do(context.Background(), key, func(context.Context) (string, error) {
			return want, nil
		})
		if err != nil || v != want {
			t.Fatalf("round %d: key stuck: (%q, %v)", round, v, err)
		}
	}
	waitForGoroutines(t, baseline)
}
