// Package pipeline is the streaming stage substrate of the DBPal
// training pipeline: a Stage is a deterministic transform over a
// stream of training Pairs, and a Graph wires stages together with
// bounded channels, per-stage instrumentation, and worker-invariant
// parallelism built on internal/par.
//
// Determinism contract. Like every parallel construct in this
// repository (DESIGN.md, "Parallel substrate"), the worker count is a
// throughput knob, not a semantics knob: a Graph emits the same pairs
// in the same order at workers=1 and workers=64.
//
//   - Sequential stages (sources, FuncWithCounters, Dedup) run on one
//     goroutine and consume the stream in arrival order, so stateful
//     transforms — an RNG-bearing augmenter, a dedup map — keep the
//     exact trajectory of the historical sequential pipeline.
//   - Map, the parallel stage, fans items out to a bounded pool and
//     re-emits results in input order through a sequencing window, so
//     pure per-item work parallelizes without reordering.
//
// Stages run concurrently with each other (pipelining), so a Graph
// overlaps generation, augmentation, and lemmatization even when every
// stage is sequential internally.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/generator"
	"repro/internal/par"
)

// Pair is the stream element: one NL–SQL training pair, carrying the
// provenance fields (Stage, Origin) the stages stamp and preserve.
type Pair = generator.Pair

// chanBuf is the per-edge channel buffer. Large enough to decouple
// stage bursts, small enough to keep memory constant: a Graph never
// holds more than stages*chanBuf pairs in flight (plus the sequencing
// windows of its parallel stages).
const chanBuf = 256

// Stage is one streaming transform. Run consumes the input stream
// until it is closed and emits output pairs via emit.
//
// Contract:
//   - in is nil for the first stage of a Graph, which must therefore
//     be a source (a stage that ignores in).
//   - emit must be called from one goroutine at a time; Run returns
//     only after everything has been emitted.
//   - workers bounds internal parallelism (<= 0 means all cores). A
//     stage's output must not depend on workers.
//   - A Stage instance is single-use: it may own per-run state (RNG,
//     dedup map), so build a fresh instance for every Graph run.
type Stage interface {
	Name() string
	Run(in <-chan Pair, emit func(Pair), workers int)
}

// CounterStage is implemented by stages that report extra counters
// (dedup hits, per-origin variant counts) into their Stats snapshot.
// Counters is called once, after Run returns.
type CounterStage interface {
	Stage
	Counters() map[string]int64
}

// Stats is one stage's instrumentation snapshot after a Graph run.
// Stages run concurrently, so WallNS measures each stage's
// first-input-to-last-output span; the spans of adjacent stages
// overlap. Use the per-stage benchmarks for isolated costs.
type Stats struct {
	Stage  string           `json:"stage"`
	In     int64            `json:"in"`
	Out    int64            `json:"out"`
	WallNS int64            `json:"wall_ns"`
	Extra  map[string]int64 `json:"extra,omitempty"`
}

// StageError is the typed failure a Graph run returns when a stage
// panics: the stage's name, how far it had gotten, what it panicked
// with, and the provenance of the last pair it emitted. Because every
// stage is order-preserving, the pairs delivered before the error are
// always a prefix of the canonical stream — for a deterministic fault
// (same stage, same item) the prefix is identical at any worker count.
type StageError struct {
	// Stage is the name of the stage that failed.
	Stage string
	// Index is the number of pairs the stage had emitted when it
	// failed — the stream position of the fault.
	Index int64
	// Recovered is the recovered panic value.
	Recovered any
	// Last is a copy of the last pair the stage emitted before
	// failing (nil when it failed before emitting anything); its
	// Stage/Origin fields carry the provenance trail.
	Last *Pair
}

// Error implements error.
func (e *StageError) Error() string {
	if e.Last != nil {
		return fmt.Sprintf("pipeline: stage %q panicked after emitting %d pairs (last origin %s/%s): %v",
			e.Stage, e.Index, e.Last.Stage, e.Last.Origin, e.Recovered)
	}
	return fmt.Sprintf("pipeline: stage %q panicked after emitting %d pairs: %v", e.Stage, e.Index, e.Recovered)
}

// graphCancel is the sentinel panic the graph's emit wrappers raise to
// unwind a stage once the run context is done (or the consumer's emit
// callback failed). It is how cancellation reaches arbitrarily deep
// into a running stage — a source in the middle of a recursive
// generator included — without every stage having to poll a context.
// Stage goroutines recover it and treat it as a graceful stop, never
// as a StageError.
type graphCancelSentinel struct{}

var graphCancel = graphCancelSentinel{}

// Graph is a runnable chain of stages. Build one per run (stages are
// single-use), execute it with Run, Stream, or Collect, then read
// Stats.
type Graph struct {
	workers int
	stages  []Stage
	stats   []Stats
}

// New wires stages into a graph. workers bounds the pool of every
// parallel stage (0 = all cores); it never changes the output.
func New(workers int, stages ...Stage) *Graph {
	if len(stages) == 0 {
		panic("pipeline: empty graph")
	}
	return &Graph{workers: workers, stages: stages}
}

// Run executes the graph, calling emit for every pair the final stage
// produces, in order, on the calling goroutine — constant memory for
// any corpus size.
//
// Failure contract (DESIGN.md, "Fault tolerance"):
//   - A stage panic does not crash the caller: the run unwinds every
//     stage without leaking goroutines and Run returns a *StageError
//     identifying the stage, stream position, and recovered value.
//     The pairs emitted before the error are a prefix of the canonical
//     stream; for a deterministic fault the prefix is identical at any
//     worker count.
//   - When ctx is done, in-flight stages are unwound (emit wrappers
//     stop the stream cooperatively) and Run returns ctx.Err(). Pairs
//     already delivered remain a valid prefix of the canonical stream.
//   - If emit returns an error, Run stops invoking it, aborts the
//     upstream stages the same way, and returns that first error.
//
// A nil ctx is treated as context.Background().
func (g *Graph) Run(ctx context.Context, emit func(Pair) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g.stats = make([]Stats, len(g.stages))
	for i, st := range g.stages {
		g.stats[i].Stage = st.Name()
	}
	// An already-done context runs nothing: without this check the
	// source could race a full channel buffer ahead of the watcher.
	if err := ctx.Err(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	var cancelled atomic.Bool
	var errOnce sync.Once
	var stageErr *StageError

	// The watcher translates ctx expiry into the cancelled flag the
	// emit wrappers poll; watchDone stops it when the run finishes
	// first. It is deliberately outside wg: it only exits once Run
	// returns (the deferred close), after every stage has drained.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancelled.Store(true)
			case <-watchDone:
			}
		}()
	}

	var in <-chan Pair
	for i, st := range g.stages {
		out := make(chan Pair, chanBuf)
		wg.Add(1)
		go func(i int, st Stage, in <-chan Pair, out chan<- Pair) {
			var last *Pair
			defer wg.Done()
			// Drain a possibly unconsumed input (failed, cancelled, or
			// lazy stage) so upstream senders can finish. Runs after
			// close(out), which runs after the recover below.
			defer func() {
				if in != nil {
					for range in {
					}
				}
			}()
			defer close(out)
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(graphCancelSentinel); ok {
					return // cooperative unwind, not a fault
				}
				errOnce.Do(func() {
					stageErr = &StageError{Stage: st.Name(), Index: g.stats[i].Out, Recovered: r, Last: last}
				})
				// Make sure the rest of the graph unwinds too: a fault
				// in one stage ends the whole run.
				cancelled.Store(true)
			}()
			start := time.Now() //lint:allow determinism WallNS is instrumentation; it never feeds the stream
			st.Run(in, func(p Pair) {
				if cancelled.Load() {
					panic(graphCancel)
				}
				g.stats[i].Out++
				q := p
				last = &q
				out <- p
			}, g.workers)
			g.stats[i].WallNS = time.Since(start).Nanoseconds()
			if cs, ok := st.(CounterStage); ok {
				g.stats[i].Extra = cs.Counters()
			}
		}(i, st, in, out)
		in = out
	}

	// Everything the final stage emitted before a fault or
	// cancellation is still a valid prefix of the canonical stream, so
	// it is delivered (a SIGINT-cancelled generation run flushes what
	// it computed). Only the caller's own emit error stops delivery —
	// the contract is that emit is never invoked again after failing.
	var emitErr error
	for p := range in {
		if emitErr == nil {
			if err := emit(p); err != nil {
				emitErr = err
				// Abort upstream work instead of computing pairs no
				// one will consume.
				cancelled.Store(true)
			}
		}
	}
	// Bounded: the range over in above only ends after every stage
	// closed its output (defer close on unwind), so all stage
	// goroutines are already returning when this join runs.
	wg.Wait() //lint:allow ctxdrop stage goroutines close their outputs on unwind before this join; cancellation drains via the stage chain
	for i := 1; i < len(g.stats); i++ {
		g.stats[i].In = g.stats[i-1].Out
	}
	switch {
	case stageErr != nil:
		return stageErr
	case emitErr != nil:
		return emitErr
	case ctx.Err() != nil:
		return ctx.Err()
	}
	return nil
}

// Stream runs the graph without a cancellation context; see Run for
// the emit and failure contract.
func (g *Graph) Stream(emit func(Pair) error) error {
	return g.Run(context.Background(), emit)
}

// Collect runs the graph and returns every emitted pair. A stage
// panic is re-raised as a *StageError panic (Collect has no error
// return); callers that want the error instead use CollectContext.
func (g *Graph) Collect() []Pair {
	out, err := g.CollectContext(context.Background())
	if err != nil {
		panic(err)
	}
	return out
}

// CollectContext runs the graph under ctx and returns every emitted
// pair, plus the run error (nil, *StageError, or ctx.Err()). On error
// the returned pairs are the prefix delivered before the failure.
func (g *Graph) CollectContext(ctx context.Context) ([]Pair, error) {
	var out []Pair
	err := g.Run(ctx, func(p Pair) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

// Stats returns the per-stage snapshot of the last Stream/Collect.
func (g *Graph) Stats() []Stats { return g.stats }

// ---------------------------------------------------------------------
// Sequential stage constructors.
// ---------------------------------------------------------------------

type sourceStage struct {
	name     string
	gen      func(emit func(Pair))
	counters func() map[string]int64
}

func (s *sourceStage) Name() string { return s.name }
func (s *sourceStage) Run(_ <-chan Pair, emit func(Pair), _ int) {
	s.gen(emit)
}
func (s *sourceStage) Counters() map[string]int64 {
	if s.counters == nil {
		return nil
	}
	return s.counters()
}

// Source builds a source stage (the head of a graph) from a generator
// function that emits the whole stream and returns.
func Source(name string, gen func(emit func(Pair))) Stage {
	return &sourceStage{name: name, gen: gen}
}

// SourceWithCounters is Source plus an extra-counter hook read after
// the run (e.g. cache hits of a memoized generation stage).
func SourceWithCounters(name string, gen func(emit func(Pair)), counters func() map[string]int64) Stage {
	return &sourceStage{name: name, gen: gen, counters: counters}
}

type funcStage struct {
	name     string
	fn       func(Pair, func(Pair))
	counters func() map[string]int64
}

func (f *funcStage) Name() string { return f.name }
func (f *funcStage) Run(in <-chan Pair, emit func(Pair), _ int) {
	for p := range in {
		f.fn(p, emit)
	}
}
func (f *funcStage) Counters() map[string]int64 {
	if f.counters == nil {
		return nil
	}
	return f.counters()
}

// FuncWithCounters builds a sequential per-item expander stage: fn is
// called once per input pair in stream order and may emit any number
// of outputs. This is the shape for stateful transforms (a shared RNG,
// a dedup map) whose trajectory must match the historical sequential
// code. counters, when non-nil, is read after the run.
func FuncWithCounters(name string, fn func(p Pair, emit func(Pair)), counters func() map[string]int64) Stage {
	return &funcStage{name: name, fn: fn, counters: counters}
}

// Dedup builds a stage that drops exact-duplicate pairs (same NL and
// SQL, first occurrence wins) and reports the drop count as the
// "dedup_hits" counter. Distinct pre-lemmatization surface forms can
// collapse to one post-lemmatization string, so the default pipeline
// runs this after the lemmatizer.
func Dedup() Stage {
	seen := map[string]bool{}
	var hits int64
	return FuncWithCounters("dedup",
		func(p Pair, emit func(Pair)) {
			k := p.Key()
			if seen[k] {
				hits++
				return
			}
			seen[k] = true
			emit(p)
		},
		func() map[string]int64 { return map[string]int64{"dedup_hits": hits} })
}

// ---------------------------------------------------------------------
// Parallel stage constructors (worker pools, order-preserving).
// ---------------------------------------------------------------------

type mapStage struct {
	name string
	fn   func(Pair) Pair
}

// Map builds a parallel per-item map stage. fn must be pure (no shared
// state): items are processed on a bounded pool and re-emitted in
// input order, so the output is identical at any worker count.
func Map(name string, fn func(Pair) Pair) Stage {
	return &mapStage{name: name, fn: fn}
}

func (m *mapStage) Name() string { return m.name }

type mapResult struct {
	p      Pair
	failed bool // fn panicked on this item
	cause  any  // the recovered value when failed
}

type mapJob struct {
	p    Pair
	done chan mapResult
}

func (m *mapStage) Run(in <-chan Pair, emit func(Pair), workers int) {
	w := par.Count(workers)
	if w <= 1 {
		for p := range in {
			emit(m.fn(p))
		}
		return
	}

	jobs := make(chan *mapJob, w)
	order := make(chan *mapJob, 2*w) // sequencing window: bounds in-flight items
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							j.done <- mapResult{failed: true, cause: r}
						}
					}()
					j.done <- mapResult{p: m.fn(j.p)}
				}()
			}
		}()
	}
	go func() {
		for p := range in {
			j := &mapJob{p: p, done: make(chan mapResult, 1)}
			order <- j // blocks once 2w items are in flight
			jobs <- j
		}
		close(jobs)
		close(order)
	}()
	// Results are consumed in input order, and the stream fail-stops at
	// the first item whose fn panicked: earlier items were all emitted,
	// later ones are drained and discarded — so the emitted prefix is
	// the same at any worker count. A panic raised by emit itself (the
	// graph's cancellation sentinel) is captured the same way so the
	// feeder and workers always drain before Run unwinds.
	var panicked any
	for j := range order {
		r := <-j.done
		if panicked != nil {
			continue // draining after a fault
		}
		if r.failed {
			panicked = r.cause
			continue
		}
		func() {
			defer func() {
				if e := recover(); e != nil {
					panicked = e
				}
			}()
			emit(r.p)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
