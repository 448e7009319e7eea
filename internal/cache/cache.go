// Package cache is the serving layer's result cache: a sharded LRU
// with integrated singleflight coalescing, keyed on the anonymized +
// lemmatized question the Parameter Handler produces. DBPal's
// anonymization makes this key unusually powerful — "patients older
// than 30" and "patients older than 50" canonicalize to the same
// placeholder question, so one cached decode answers every constant
// variation of a query shape; only the cheap per-request
// post-processing (constant restoration) differs.
//
// A value may be a failure. A loader error is an accident of one load
// (the leader's cancellation, an infrastructure fault) and is never
// cached. A failure that is the key's settled answer is instead
// returned by the loader as a value with a nil error: it is cached and
// served to later calls as a Hit like any other value, so a key that
// always fails stops paying its loader.
//
// Concurrency contract:
//
//   - A hit returns the cached value without running the loader.
//   - N concurrent misses for one key pay exactly one loader call: the
//     first caller becomes the flight leader, the rest coalesce onto
//     its result (value or loader error alike, so a failing key cannot
//     thundering-herd the model).
//   - A leader cancelled mid-load never strands its waiters: the dead
//     flight is published as retryable, every waiter re-enters the
//     miss path, and one of them becomes the new leader. A key can
//     therefore never be stuck behind a cancelled request.
//
// Eviction is deterministic: each shard evicts its strict LRU entry,
// and a key always maps to the same shard (FNV-1a), so a given
// operation sequence produces the same cache contents on every run.
package cache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Do call was satisfied, for telemetry and
// the request trace.
type Outcome int

// Do outcomes.
const (
	// Hit: the value was already cached.
	Hit Outcome = iota
	// Miss: this caller ran the loader (it was the flight leader).
	Miss
	// Coalesced: another caller's in-flight load supplied the result.
	Coalesced
)

// String names the outcome for traces and /statsz.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Config sizes a Cache. The zero value gets the defaults below.
type Config struct {
	// Capacity is the total entry budget across shards (default 1024).
	Capacity int
}

// minShardEntries keeps each shard's LRU deep enough that per-shard
// eviction stays close to a global LRU; maxShards bounds the lock
// striping, beyond which more shards only thin the shards out.
const (
	minShardEntries = 64
	maxShards       = 16
)

// shardCount is the number of independent LRU shards for a capacity:
// the largest power of two (so the hash can mask) that leaves every
// shard at least minShardEntries entries, at most maxShards. A small
// cache is one strict-LRU shard; the default 1024 entries get 16.
func shardCount(capacity int) int {
	n := 1
	for n*2 <= maxShards && n*2*minShardEntries <= capacity {
		n *= 2
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	return c
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Capacity  int   `json:"capacity"`
	Shards    int   `json:"shards"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Cache is the sharded LRU + singleflight store. It is safe for any
// number of concurrent callers.
type Cache[V any] struct {
	cfg    Config
	shards []*shard[V]
	mask   uint32

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// New builds a cache from cfg.
func New[V any](cfg Config) *Cache[V] {
	cfg = cfg.withDefaults()
	shards := shardCount(cfg.Capacity)
	c := &Cache[V]{cfg: cfg, mask: uint32(shards - 1)}
	per := cfg.Capacity / shards
	for i := 0; i < shards; i++ {
		c.shards = append(c.shards, newShard[V](per))
	}
	return c
}

// fnv1a is the shard hash: deterministic across processes, cheap, and
// good enough to spread question keys.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return c.shards[fnv1a(key)&c.mask]
}

// Do returns the value for key, loading it at most once across all
// concurrent callers. The loader runs with the leader's ctx; see the
// package comment for the coalescing and leader-cancellation
// contract. A loader error is returned to the leader and every
// coalesced waiter, and nothing is cached; a failure the loader
// returns as a value is cached like any other (see the package
// comment). A waiter whose own ctx expires gives up with ctx.Err()
// without disturbing the flight.
func (c *Cache[V]) Do(ctx context.Context, key string, load func(ctx context.Context) (V, error)) (V, Outcome, error) {
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		if v, ok := sh.getLocked(key); ok {
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, Hit, nil
		}
		if f, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			select {
			case <-f.done:
				if f.retry {
					// The leader was cancelled mid-load; re-enter the
					// miss path and race to become the new leader.
					continue
				}
				c.coalesced.Add(1)
				return f.val, Coalesced, f.err
			case <-ctx.Done():
				var zero V
				return zero, Coalesced, ctx.Err()
			}
		}
		// No value, no flight: this caller is the leader.
		f := &flight[V]{done: make(chan struct{})}
		sh.flights[key] = f
		sh.mu.Unlock()

		v, err := load(ctx)

		sh.mu.Lock()
		delete(sh.flights, key)
		f.val, f.err = v, err
		// A loader killed by its own caller's cancellation produced no
		// answer anyone can share; hand the key to a live waiter
		// instead of broadcasting the leader's death.
		f.retry = err != nil && ctx.Err() != nil
		if err == nil {
			if sh.putLocked(key, v) {
				c.evictions.Add(1)
			}
		}
		close(f.done)
		sh.mu.Unlock()
		c.misses.Add(1)
		return v, Miss, err
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the current Stats.
func (c *Cache[V]) Snapshot() Stats {
	return Stats{
		Capacity:  c.cfg.Capacity,
		Shards:    len(c.shards),
		Entries:   c.Len(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
}

// flight is one in-progress load.
type flight[V any] struct {
	done  chan struct{}
	val   V
	err   error
	retry bool // leader cancelled: waiters must re-enter the miss path
}

// shard is one LRU partition: a map into an intrusive doubly-linked
// recency list (most recent at head).
type shard[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry[V]
	flights map[string]*flight[V]
	head    *entry[V] // most recently used
	tail    *entry[V] // least recently used
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

func newShard[V any](capacity int) *shard[V] {
	return &shard[V]{
		cap:     capacity,
		entries: map[string]*entry[V]{},
		flights: map[string]*flight[V]{},
	}
}

func (s *shard[V]) getLocked(key string) (V, bool) {
	e, ok := s.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	return e.val, true
}

// putLocked inserts or refreshes key and reports whether an entry was
// evicted to make room.
func (s *shard[V]) putLocked(key string, v V) bool {
	if e, ok := s.entries[key]; ok {
		e.val = v
		s.moveToFront(e)
		return false
	}
	e := &entry[V]{key: key, val: v}
	s.entries[key] = e
	s.pushFront(e)
	if len(s.entries) <= s.cap {
		return false
	}
	lru := s.tail
	s.unlink(lru)
	delete(s.entries, lru.key)
	return true
}

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
