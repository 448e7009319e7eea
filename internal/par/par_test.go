package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCount(t *testing.T) {
	if Count(0) != runtime.NumCPU() || Count(-3) != runtime.NumCPU() {
		t.Fatal("non-positive counts should resolve to NumCPU")
	}
	if Count(5) != 5 {
		t.Fatal("positive counts pass through")
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out := make([]int, 100)
		Map(workers, len(out), func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroAndOneItems(t *testing.T) {
	Map(4, 0, func(int) { t.Fatal("fn called for n=0") })
	calls := 0
	Map(4, 1, func(i int) { calls++ })
	if calls != 1 {
		t.Fatalf("n=1 calls = %d", calls)
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int64
	var mu sync.Mutex
	Map(workers, 50, func(i int) {
		n := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt64(&cur, -1)
	})
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", peak, workers)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic value %v lost the cause", r)
		}
	}()
	Map(4, 10, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(42, i)
		if s != SplitSeed(42, i) {
			t.Fatal("SplitSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different bases should split differently")
	}
	// Child streams should not be trivially correlated with the base.
	a := rand.New(rand.NewSource(SplitSeed(7, 0))).Float64()
	b := rand.New(rand.NewSource(SplitSeed(7, 1))).Float64()
	if a == b {
		t.Fatal("adjacent child streams coincide")
	}
}

func TestMapCtxCancelledPrefix(t *testing.T) {
	// Cancel partway through: the executed indices must form a prefix
	// [0, k) at every worker count — cancellation can shorten the
	// stream but never punch holes in it. Calls past index 40 wait for
	// the cancel, so at most one per worker is in flight when it comes
	// and the run cannot finish all n calls first (if the worker of
	// index 40 were descheduled while the others ran to the end, a nil
	// return would be correct and the test would fail by timing).
	for _, workers := range []int{1, 4, 16} {
		const n = 200
		ctx, cancel := context.WithCancel(context.Background())
		var ran [n]atomic.Bool
		err := MapCtx(ctx, workers, n, func(i int) {
			if i == 40 {
				cancel()
			}
			if i > 40 {
				<-ctx.Done()
			}
			ran[i].Store(true)
		})
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned nil", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		seenGap := false
		for i := 0; i < n; i++ {
			if !ran[i].Load() {
				seenGap = true
				continue
			}
			if seenGap {
				t.Fatalf("workers=%d: executed set has a hole before index %d", workers, i)
			}
		}
		if !ran[40].Load() || ran[n-1].Load() {
			t.Fatalf("workers=%d: prefix bounds wrong", workers)
		}
	}
}

func TestMapCtxNilErrorRunsAll(t *testing.T) {
	var calls atomic.Int64
	if err := MapCtx(context.Background(), 4, 50, func(i int) { calls.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 50 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MapCtx(ctx, 4, 10, func(int) { t.Error("fn ran under a done context") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestAwaitCompletesAndTimesOut(t *testing.T) {
	if err := Await(context.Background(), func() {}); err != nil {
		t.Fatalf("completed fn returned %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	block := make(chan struct{})
	defer close(block)
	if err := Await(ctx, func() { <-block }); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired Await returned %v", err)
	}
}

func TestAwaitRepanicsWhileWaiting(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "kaboom") {
			t.Fatalf("panic not re-raised: %v", r)
		}
	}()
	_ = Await(context.Background(), func() { panic("kaboom") })
}
