package core

import (
	"strings"
	"sync"

	"repro/internal/generator"
	"repro/internal/pipeline"
)

// GenCache memoizes the generate stage's output across pipeline runs,
// keyed by everything that determines it: schema name, instantiation
// parameters, template subset, and seed. The augmentation parameters
// are deliberately not part of the key — that is the point: a
// hyperopt trial that varies only augmentation knobs (grid-search
// axes 6–9, the ablation variants, surrogate refinements) replays the
// cached instantiation instead of re-running the generator.
//
// Replay is byte-identical to live generation (the generator is
// deterministic given the key), so caching never changes a corpus.
// A GenCache is safe for concurrent use by parallel trials; memory is
// bounded by Limit entries (first-come, no eviction — recurring keys
// are the early ones in every search pattern this repo runs).
type GenCache struct {
	mu      sync.Mutex
	limit   int
	entries map[genKey][]Pair
}

type genKey struct {
	schema string
	params generator.Params
	seed   int64
	tpls   string // template-subset fingerprint; "" = full library
}

// DefaultGenCacheLimit bounds a cache built with NewGenCache(0).
const DefaultGenCacheLimit = 32

// NewGenCache returns a cache holding at most limit generation
// outputs (limit <= 0 selects DefaultGenCacheLimit).
func NewGenCache(limit int) *GenCache {
	if limit <= 0 {
		limit = DefaultGenCacheLimit
	}
	return &GenCache{limit: limit, entries: map[genKey][]Pair{}}
}

func (c *GenCache) key(p *Pipeline) genKey {
	k := genKey{schema: p.Schema.Name, params: p.Params.Instantiation, seed: p.Seed}
	if p.Templates != nil {
		ids := make([]string, len(p.Templates))
		for i, t := range p.Templates {
			ids[i] = t.ID
		}
		k.tpls = "#" + strings.Join(ids, ",")
	}
	return k
}

// stage returns a generate source stage that replays the cached
// output when the key is resident and otherwise generates live while
// recording. The stage reports a "cache_hit" counter (0 or 1) in its
// Stats snapshot.
func (c *GenCache) stage(p *Pipeline) pipeline.Stage {
	key := c.key(p)
	var hit int64
	return pipeline.SourceWithCounters(generator.StageGenerate,
		func(emit func(Pair)) {
			c.mu.Lock()
			cached, ok := c.entries[key]
			c.mu.Unlock()
			if ok {
				hit = 1
				for _, q := range cached {
					emit(q)
				}
				return
			}
			var rec []Pair
			p.newGenerator().Stream(func(q Pair) {
				rec = append(rec, q)
				emit(q)
			})
			c.mu.Lock()
			if _, dup := c.entries[key]; !dup && len(c.entries) < c.limit {
				c.entries[key] = rec
			}
			c.mu.Unlock()
		},
		func() map[string]int64 { return map[string]int64{"cache_hit": hit} })
}
