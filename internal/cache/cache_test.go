package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// put stores key→v through the loader path.
func put(c *Cache[int], key string, v int) {
	c.Do(context.Background(), key, func(context.Context) (int, error) { return v, nil })
}

// has reports whether key is cached, without touching its recency.
func has[V any](c *Cache[V], key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// TestLRUEvictionDeterministic: a single-shard cache evicts its strict
// LRU entry, recency is refreshed by a hit, and replaying the same
// operation sequence reproduces the same contents and counters.
func TestLRUEvictionDeterministic(t *testing.T) {
	run := func() (*Cache[int], []string) {
		c := New[int](Config{Capacity: 3})
		for i := 1; i <= 4; i++ {
			put(c, fmt.Sprintf("k%d", i), i)
		}
		// k1 is the LRU victim of inserting k4.
		if has(c, "k1") {
			t.Fatal("k1 should have been evicted")
		}
		// Refresh k2 with a hit; inserting k5 must now evict k3.
		v, o, _ := c.Do(context.Background(), "k2", func(context.Context) (int, error) { return -1, nil })
		if v != 2 || o != Hit {
			t.Fatalf("k2 = %v %v", v, o)
		}
		put(c, "k5", 5)
		var alive []string
		for i := 1; i <= 5; i++ {
			k := fmt.Sprintf("k%d", i)
			if has(c, k) {
				alive = append(alive, k)
			}
		}
		return c, alive
	}
	c1, alive1 := run()
	c2, alive2 := run()
	want := []string{"k2", "k4", "k5"}
	if fmt.Sprint(alive1) != fmt.Sprint(want) || fmt.Sprint(alive2) != fmt.Sprint(want) {
		t.Fatalf("surviving keys = %v / %v, want %v", alive1, alive2, want)
	}
	s1, s2 := c1.Snapshot(), c2.Snapshot()
	if s1 != s2 {
		t.Fatalf("replayed snapshots differ: %+v vs %+v", s1, s2)
	}
	if s1.Evictions != 2 || s1.Entries != 3 {
		t.Fatalf("snapshot = %+v, want 2 evictions over 3 entries", s1)
	}
}

// TestConfigDefaults: the zero config gets the default capacity and
// its 16 shards, the shard count follows the capacity (a power of two,
// at least 64 entries a shard, at most 16 shards, one strict-LRU shard
// for a small cache), and sharding never inflates a small capacity.
func TestConfigDefaults(t *testing.T) {
	if c := New[int](Config{}); c.cfg.Capacity != 1024 || len(c.shards) != 16 {
		t.Fatalf("defaults: capacity %d, %d shards", c.cfg.Capacity, len(c.shards))
	}
	for capacity, want := range map[int]int{1: 1, 3: 1, 127: 1, 128: 2, 300: 4, 512: 8, 1023: 8, 1024: 16, 1 << 20: 16} {
		if got := shardCount(capacity); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", capacity, got, want)
		}
	}
	c := New[int](Config{Capacity: 2})
	for i := 0; i < 100; i++ {
		put(c, fmt.Sprintf("k%d", i), i)
	}
	if got := c.Len(); got > 2 {
		t.Fatalf("capacity 2 cache holds %d entries", got)
	}
}

// TestShardStability: a key always lands on the same shard.
func TestShardStability(t *testing.T) {
	c := New[int](Config{Capacity: 512})
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("question %d", i)
		if c.shard(k) != c.shard(k) {
			t.Fatalf("key %q changed shards", k)
		}
	}
}

// TestDoHitMissCoalesce: the three outcomes and their counters. N
// concurrent misses on one key run the loader exactly once.
func TestDoHitMissCoalesce(t *testing.T) {
	c := New[string](Config{Capacity: 8})
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	loader := func(context.Context) (string, error) {
		calls.Add(1)
		close(started)
		<-gate
		return "sql", nil
	}

	const waiters = 8
	type res struct {
		v   string
		o   Outcome
		err error
	}
	results := make(chan res, waiters+1)
	go func() {
		v, o, err := c.Do(context.Background(), "q", loader)
		results <- res{v, o, err}
	}()
	<-started // the leader is inside the loader; everyone else coalesces
	for i := 0; i < waiters; i++ {
		go func() {
			v, o, err := c.Do(context.Background(), "q", loader)
			results <- res{v, o, err}
		}()
	}
	// Waiters can only block on the flight now; open the gate.
	close(gate)

	var miss, coalesced int
	for i := 0; i < waiters+1; i++ {
		r := <-results
		if r.err != nil || r.v != "sql" {
			t.Fatalf("Do = (%q, %v, %v)", r.v, r.o, r.err)
		}
		switch r.o {
		case Miss:
			miss++
		case Coalesced:
			coalesced++
		case Hit: // a waiter that arrived after the flight published
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times, want exactly 1", calls.Load())
	}
	if miss != 1 {
		t.Fatalf("misses = %d, want 1 (the leader)", miss)
	}
	// And now it is cached for everyone.
	v, o, err := c.Do(context.Background(), "q", loader)
	if err != nil || v != "sql" || o != Hit {
		t.Fatalf("post-flight Do = (%q, %v, %v), want hit", v, o, err)
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.Hits < 1 || st.Coalesced != int64(coalesced) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoSharedFailure: a loader error propagates to the leader and all
// coalesced waiters, and nothing is cached (the next Do retries).
func TestDoSharedFailure(t *testing.T) {
	c := New[string](Config{Capacity: 8})
	boom := errors.New("model failure")
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leadErr error
	go func() {
		defer wg.Done()
		_, _, leadErr = c.Do(context.Background(), "q", func(context.Context) (string, error) {
			calls.Add(1)
			close(started)
			<-gate
			return "", boom
		})
	}()
	<-started
	wg.Add(1)
	var waitErr error
	go func() {
		defer wg.Done()
		_, _, waitErr = c.Do(context.Background(), "q", func(context.Context) (string, error) {
			// Reached only if this goroutine arrived after the flight
			// died and was promoted to a leader of its own (failures
			// are not cached, so late arrivals re-load); fail the same
			// way so the shared-failure invariants hold on either path.
			calls.Add(1)
			return "", boom
		})
	}()
	// Nudge the waiter onto the coalescing path before releasing the
	// leader (joining under a held flight is proven deterministically
	// in TestDoHitMissCoalesce; here either path must end in boom).
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if !errors.Is(leadErr, boom) {
		t.Fatalf("leader err = %v", leadErr)
	}
	// Coalesced onto the failing flight or promoted and failed itself:
	// the waiter sees the loader's error either way, never a cached
	// failure.
	if !errors.Is(waitErr, boom) {
		t.Fatalf("waiter err = %v", waitErr)
	}
	if has(c, "q") {
		t.Fatal("failed load must not be cached")
	}
	v, o, err := c.Do(context.Background(), "q", func(context.Context) (string, error) { return "ok", nil })
	if err != nil || v != "ok" || o != Miss {
		t.Fatalf("retry after failure = (%q, %v, %v)", v, o, err)
	}
}

// TestFailureValueIsCached: a failure the loader returns as a value is
// the key's answer: it is cached, and later calls get it as a Hit
// without loading again.
func TestFailureValueIsCached(t *testing.T) {
	type answer struct{ err error }
	c := New[answer](Config{Capacity: 8})
	boom := errors.New("no tier answers this question")
	var calls atomic.Int64
	load := func(context.Context) (answer, error) {
		calls.Add(1)
		return answer{err: boom}, nil
	}
	for i, want := range []Outcome{Miss, Hit, Hit} {
		v, o, err := c.Do(context.Background(), "q", load)
		if err != nil || o != want || !errors.Is(v.err, boom) {
			t.Fatalf("call %d = (%v, %v, %v), want the failure value as a %v", i, v, o, err, want)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times, want 1", calls.Load())
	}
}

// TestWaiterDeadlineLeavesFlight: a waiter whose own context expires
// abandons the flight with ctx.Err() without disturbing the leader.
func TestWaiterDeadlineLeavesFlight(t *testing.T) {
	c := New[string](Config{Capacity: 8})
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "q", func(context.Context) (string, error) {
			close(started)
			<-gate
			return "late", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "q", func(context.Context) (string, error) { return "", nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter err = %v", err)
	}
	close(gate)
	// The leader's flight still lands.
	v, _, err := c.Do(context.Background(), "q", func(context.Context) (string, error) { return "", errors.New("no") })
	if err != nil || v != "late" {
		t.Fatalf("after leader landed: (%q, %v)", v, err)
	}
}
