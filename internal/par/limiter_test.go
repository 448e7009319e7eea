package par

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestLimiterTryAcquireRelease(t *testing.T) {
	l := NewLimiter(2)
	if cap(l.slots) != 2 {
		t.Fatalf("capacity = %d, want 2", cap(l.slots))
	}
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("two acquires within capacity must succeed")
	}
	if l.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", l.InUse())
	}
	if l.TryAcquire() {
		t.Fatal("third acquire must fail")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("released slot must be acquirable")
	}
}

func TestLimiterAcquireBlocksUntilRelease(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		acquired <- l.Acquire(context.Background())
	}()
	select {
	case err := <-acquired:
		t.Fatalf("Acquire returned %v before the slot was released", err)
	case <-time.After(20 * time.Millisecond):
	}
	l.Release()
	if err := <-acquired; err != nil {
		t.Fatalf("Acquire after release = %v", err)
	}
	wg.Wait()
	l.Release()
}

func TestLimiterAcquireHonorsContext(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("first acquire must succeed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("Acquire on a full limiter must fail when ctx expires")
	}
	// A pre-cancelled context never steals a free slot.
	l.Release()
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := l.Acquire(done); err == nil {
		t.Fatal("Acquire with a done context must fail")
	}
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d after failed acquires, want 0", l.InUse())
	}
}

func TestLimiterReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release must panic")
		}
	}()
	NewLimiter(1).Release()
}

func TestLimiterDefaultCapacity(t *testing.T) {
	if got := cap(NewLimiter(0).slots); got != Count(0) {
		t.Fatalf("NewLimiter(0) capacity = %d, want Count(0) = %d", got, Count(0))
	}
}
