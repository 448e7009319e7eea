// Package registry hosts many DBPal tenants — one schema, translator,
// database, and result cache each — inside a single process, making
// the paper's "pluggable from nothing but a schema" pitch a live
// operation instead of a restart. Each tenant serves from a versioned
// model slot read lock-free through an atomic pointer; onboarding a
// new or replacement version runs in the background over the same
// pipeline stage graph and checkpointable training the CLIs use
// (internal/boot), gated by an exact-match eval before the swap:
//
//   - Slot swap: a version becomes visible with one atomic store, so
//     in-flight requests keep the version they started with and new
//     requests see the new one — no lock on the hot path, no dropped
//     requests.
//   - Rollback: a candidate failing the eval gate is discarded before
//     the swap; the previously serving version never stops answering.
//   - Restartable onboarding: training checkpoints land in
//     CheckpointDir/<tenant>.ckpt; a killed onboarding re-run with the
//     same spec resumes from the checkpoint bit-identically.
//
// Per-tenant equipment above this package (the circuit breakers)
// attaches to each version through Config.Equip, so the registry stays
// independent of the HTTP serving layer.
package registry

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/boot"
	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/runtime"
)

// State is a tenant's lifecycle phase, exposed by the admin API.
type State string

// Tenant lifecycle states. Onboarding walks pending → generating →
// training → evaluating; the terminal states are ready (serving),
// failed (no version ever installed), and rolled_back (a re-onboard
// failed, the prior version still serves).
const (
	StatePending    State = "pending"
	StateGenerating State = "generating"
	StateTraining   State = "training"
	StateEvaluating State = "evaluating"
	StateReady      State = "ready"
	StateFailed     State = "failed"
	StateRolledBack State = "rolled_back"
)

// Status is the externally visible snapshot of one tenant.
type Status struct {
	Name  string `json:"name"`
	State State  `json:"state"`
	// Version is the serving slot's sequence number (0 = none yet).
	Version int `json:"version"`
	// Onboarding reports a build in flight (state names its phase).
	Onboarding bool `json:"onboarding,omitempty"`
	// Resumed reports that the in-flight build continued from a
	// checkpoint left by a killed predecessor.
	Resumed bool `json:"resumed,omitempty"`
	// Pairs and Accuracy describe the serving version's corpus and its
	// eval-gate score.
	Pairs    int     `json:"pairs,omitempty"`
	Accuracy float64 `json:"accuracy"`
	Error    string  `json:"error,omitempty"`
}

// Version is one immutable model slot value: the assembled unit plus
// the per-version result cache of question shapes and question index
// of recorded answers (a fresh pair per version keeps hits, decodes
// and recorded answers alike coherent with the model that produced
// them across swaps).
type Version struct {
	Seq   int
	Unit  *boot.Unit
	Cache *cache.Cache[*runtime.Shape]
	// Answers is the question index: the recorded response to an exact
	// question text on one route, keyed by the route ("ask",
	// "translate"), a space and the text.
	Answers  *cache.Cache[*Answer]
	Accuracy float64
	// Equipment is whatever Config.Equip attached (the serving layer's
	// per-version breakers); opaque to the registry.
	Equipment any
}

// Answer is one recorded response of the serving layer: its status
// and encoded JSON body, and what its counters need to count a replay
// as the original was counted (the answering tier of an answer, the
// error kind of a failure). A recorded Answer is shared by every
// replay and never mutated.
type Answer struct {
	Status int
	Tier   string
	Kind   string
	Body   []byte
}

// Tenant is one hosted schema. The serving slot is read with Current
// (lock-free); everything else is guarded by mu.
type Tenant struct {
	Name string
	// Limiter bounds the tenant's concurrent translations — admission
	// control is per-tenant, so one tenant's overload cannot starve
	// another.
	Limiter *par.Limiter

	cur atomic.Pointer[Version]

	mu      sync.Mutex
	st      Status
	nextSeq int
	cancel  context.CancelFunc // active onboarding, nil otherwise
}

// Current returns the serving version, or nil while the first
// onboarding is still in flight.
func (t *Tenant) Current() *Version { return t.cur.Load() }

// Status snapshots the tenant.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Name = t.Name
	if v := t.cur.Load(); v != nil {
		st.Version = v.Seq
		st.Accuracy = v.Accuracy
		st.Pairs = v.Unit.Pairs
	}
	return st
}

// install publishes v as the serving version. The atomic store is the
// zero-downtime swap: requests that already loaded the old version
// finish on it, every later Current sees v.
func (t *Tenant) install(v *Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.Store(v)
	t.st.State = StateReady
	t.st.Onboarding = false
	t.st.Resumed = false
	t.st.Error = ""
}

// enter moves the onboarding status to a new phase.
func (t *Tenant) enter(s State) {
	t.mu.Lock()
	t.st.State = s
	t.mu.Unlock()
}

// fail terminates onboarding: rolled_back when a prior version keeps
// serving, failed when there is nothing to serve.
func (t *Tenant) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.Onboarding = false
	t.st.Resumed = false
	t.st.Error = err.Error()
	if t.cur.Load() != nil {
		t.st.State = StateRolledBack
	} else {
		t.st.State = StateFailed
	}
}

// Config sizes the registry and its onboarding pipeline.
type Config struct {
	// Workers bounds each tenant's concurrent translations (0 = NumCPU).
	Workers int
	// CacheSize sizes each version's result cache and question index
	// (0 = neither).
	CacheSize int
	// MinAccuracy is the eval gate: a candidate scoring below it is
	// rejected (rolled back) instead of installed. 0 disables gating.
	MinAccuracy float64
	// EvalQuestions sizes the gate workload (default 24; negative
	// skips evaluation entirely).
	EvalQuestions int
	// CheckpointDir, when set, makes onboarding restartable: training
	// checkpoints land in <dir>/<tenant>.ckpt every CheckpointEvery
	// steps (default 25) and a rerun resumes from them.
	CheckpointDir   string
	CheckpointEvery int
	// Equip, when non-nil, attaches per-version equipment before the
	// version becomes visible (the serving layer's breakers).
	Equip func(tenant string, v *Version)
	// Logf, when non-nil, receives onboarding progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.EvalQuestions == 0 {
		c.EvalQuestions = 24
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	return c
}

// Registry is the tenant directory. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string // insertion order

	wg sync.WaitGroup
}

// New returns an empty registry.
func New(cfg Config) *Registry {
	return &Registry{cfg: cfg.withDefaults(), tenants: map[string]*Tenant{}}
}

// Lookup returns the named tenant, or nil.
func (r *Registry) Lookup(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// Names lists tenants in insertion order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Statuses snapshots every tenant, sorted by name for stable output.
func (r *Registry) Statuses() []Status {
	r.mu.RLock()
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	out := make([]Status, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tenant returns the named tenant, creating (and ordering) it if new.
func (r *Registry) tenant(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[name]
	if t == nil {
		t = &Tenant{
			Name:    name,
			Limiter: par.NewLimiter(par.Count(r.cfg.Workers)),
			st:      Status{State: StatePending},
		}
		r.tenants[name] = t
		r.order = append(r.order, name)
	}
	return t
}

// newVersion allocates the next slot value for t and attaches its
// caches and equipment.
func (r *Registry) newVersion(t *Tenant, u *boot.Unit, acc float64) *Version {
	t.mu.Lock()
	t.nextSeq++
	seq := t.nextSeq
	t.mu.Unlock()
	v := &Version{Seq: seq, Unit: u, Accuracy: acc}
	if r.cfg.CacheSize > 0 {
		v.Cache = cache.New[*runtime.Shape](cache.Config{Capacity: r.cfg.CacheSize})
		v.Answers = cache.New[*Answer](cache.Config{Capacity: r.cfg.CacheSize})
	}
	if r.cfg.Equip != nil {
		r.cfg.Equip(t.Name, v)
	}
	return v
}

// Install registers a pre-built unit synchronously — the boot-time
// path for schemas named on the command line. The returned tenant is
// immediately ready.
func (r *Registry) Install(name string, u *boot.Unit) *Tenant {
	t := r.tenant(name)
	t.install(r.newVersion(t, u, 0))
	return t
}

// Remove deletes the tenant, cancelling any in-flight onboarding. It
// reports whether the tenant existed. Requests already holding the
// tenant's version finish normally; new lookups miss.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	t := r.tenants[name]
	if t != nil {
		delete(r.tenants, name)
		for i, n := range r.order {
			if n == name {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	if t == nil {
		return false
	}
	t.mu.Lock()
	cancel := t.cancel
	t.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// WaitCtx blocks until every background onboarding has returned
// (after cancelling their context via the caller's shutdown path), or
// returns ctx.Err() if they have not all returned by the time ctx is
// done. A misbehaving model can then cost at most a leaked goroutine
// on exit, never a hung shutdown.
func (r *Registry) WaitCtx(ctx context.Context) error {
	return par.Await(ctx, r.wg.Wait)
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// EvalGateError reports a candidate model rejected by the accuracy
// gate.
type EvalGateError struct {
	Accuracy, Min float64
}

func (e *EvalGateError) Error() string {
	return fmt.Sprintf("registry: eval gate: accuracy %.3f below minimum %.3f", e.Accuracy, e.Min)
}
