package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/critic"
	"repro/internal/registry"
)

// Stats is the /statsz snapshot: queue and concurrency occupancy,
// admission outcomes, and per-tier answer counts summed across
// tenants, with Tenants breaking everything out per tenant —
// including each tenant's breakers, cache and critic. The shape is
// part of the serving contract (DESIGN.md, "Serving layer").
type Stats struct {
	Draining bool `json:"draining"`
	// Capacity is the per-tenant concurrency limit, QueueCap the
	// per-tenant waiting room.
	Capacity int `json:"capacity"`
	QueueCap int `json:"queue_cap"`
	// InFlight and QueueDepth are instantaneous occupancy.
	InFlight   int   `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	// Admission and completion counters (monotonic).
	Accepted   int64 `json:"accepted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
	Validation int64 `json:"validation"`
	// Tiers counts answered questions by the tier that answered
	// (Trace.Tier).
	Tiers map[string]int64 `json:"tiers"`
	// Tenants is the per-tenant breakdown, keyed by tenant name.
	Tenants map[string]TenantStats `json:"tenants"`
}

// TenantStats is one tenant's slice of the snapshot: registry
// lifecycle (state, serving version, onboarding progress) plus the
// serving-side occupancy, counters, and per-version equipment.
// Breakers names each breaker's state, keyed by tier name and
// "critic" for the critic's sandbox; Cache describes the result cache
// and Critic the critic's counters (each absent when off).
type TenantStats struct {
	State string `json:"state"`
	// Version is the serving model slot's sequence number (0 = none
	// installed yet).
	Version    int     `json:"version"`
	Accuracy   float64 `json:"accuracy"`
	Onboarding bool    `json:"onboarding,omitempty"`
	Resumed    bool    `json:"resumed,omitempty"`
	Error      string  `json:"error,omitempty"`
	Pairs      int     `json:"pairs,omitempty"`

	InFlight   int   `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	Accepted   int64 `json:"accepted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
	Validation int64 `json:"validation"`

	Tiers    map[string]int64  `json:"tiers,omitempty"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Cache    *CacheStats       `json:"cache,omitempty"`
	Critic   *critic.Stats     `json:"critic,omitempty"`
}

// CacheStats is a tenant's result-cache section: the serving
// version's cache counters, and how many of its hits replayed a
// recorded answer (VerdictAnswers) or failure (VerdictFailures)
// instead of finalizing. A replayed answer still counts in Tiers under
// the tier that first produced it.
type CacheStats struct {
	cache.Stats
	VerdictAnswers  int64 `json:"verdict_answers"`
	VerdictFailures int64 `json:"verdict_failures"`
}

// Snapshot assembles the Stats for /statsz: a row per tenant, with the
// top-level counters summed across them.
func (s *Server) Snapshot() Stats {
	st := Stats{
		Draining: s.draining.Load(),
		Capacity: s.cfg.Workers,
		QueueCap: s.cfg.Queue,
		Tiers:    map[string]int64{},
		Tenants:  map[string]TenantStats{},
	}
	for _, name := range s.reg.Names() {
		t := s.reg.Lookup(name)
		if t == nil {
			continue
		}
		row := s.tenantStats(t)
		st.Tenants[name] = row
		st.InFlight += row.InFlight
		st.QueueDepth += row.QueueDepth
		st.Accepted += row.Accepted
		st.Completed += row.Completed
		st.Failed += row.Failed
		st.Shed += row.Shed
		st.Timeouts += row.Timeouts
		st.Validation += row.Validation
		for tier, n := range row.Tiers {
			st.Tiers[tier] += n
		}
	}
	return st
}

// tenantStats snapshots one tenant's row.
func (s *Server) tenantStats(t *registry.Tenant) TenantStats {
	rst := t.Status()
	row := TenantStats{
		State:      string(rst.State),
		Version:    rst.Version,
		Accuracy:   rst.Accuracy,
		Onboarding: rst.Onboarding,
		Resumed:    rst.Resumed,
		Error:      rst.Error,
		Pairs:      rst.Pairs,
		InFlight:   t.Limiter.InUse(),
	}
	s.mu.Lock()
	ts := s.tenants[t.Name]
	s.mu.Unlock()
	if ts != nil {
		row.QueueDepth = ts.waiting.Load()
		row.Accepted = ts.stats.accepted.Load()
		row.Completed = ts.stats.completed.Load()
		row.Failed = ts.stats.failed.Load()
		row.Shed = ts.stats.shed.Load()
		row.Timeouts = ts.stats.timeouts.Load()
		row.Validation = ts.stats.validation.Load()
		row.Tiers = ts.stats.tierCounts()
	}
	if v := t.Current(); v != nil {
		if b := versionBreakers(v); b != nil {
			row.Breakers = b.States()
		}
		if v.Cache != nil {
			row.Cache = &CacheStats{Stats: v.Cache.Snapshot()}
			if e := versionEquipment(v); e != nil {
				row.Cache.VerdictAnswers = e.verdictAnswers.Load()
				row.Cache.VerdictFailures = e.verdictFailures.Load()
			}
		}
		if c := v.Unit.Translator.Critic; c != nil {
			cs := c.Snapshot()
			row.Critic = &cs
		}
	}
	return row
}

// counters aggregates the server's mutable telemetry. Counter fields
// are atomics; the tier map has its own lock.
type counters struct {
	accepted   atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	shed       atomic.Int64
	timeouts   atomic.Int64
	validation atomic.Int64

	mu    sync.Mutex
	tiers map[string]int64
}

func newCounters() *counters {
	return &counters{tiers: map[string]int64{}}
}

// answeredBy bumps the per-tier answer count.
func (c *counters) answeredBy(tier string) {
	if tier == "" {
		return
	}
	c.mu.Lock()
	c.tiers[tier]++
	c.mu.Unlock()
}

// tierCounts snapshots the per-tier map in sorted-key order.
func (c *counters) tierCounts() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.tiers))
	for name := range c.tiers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]int64, len(names))
	for _, name := range names {
		out[name] = c.tiers[name]
	}
	return out
}
