// Package pipeline is the streaming stage substrate of the DBPal
// training pipeline: a Stage is a deterministic transform over a
// stream of training Pairs, and a Graph chains stages into one
// synchronous pass with per-stage instrumentation.
//
// A run is nested callbacks on the caller's goroutine: the source
// stage emits each pair straight into the next stage's per-pair step,
// which emits into the one after it, down to the caller's emit. Stages
// therefore see pairs in exactly the order the source produced them,
// so stateful transforms — an RNG-bearing augmenter, a dedup map —
// keep the exact trajectory of the historical sequential pipeline, and
// a run holds no more than one pair per stage in flight.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/generator"
)

// Pair is the stream element: one NL–SQL training pair, carrying the
// provenance fields (Stage, Origin) the stages stamp and preserve.
type Pair = generator.Pair

// Stage is one streaming transform. Run streams the stage's output
// into emit and returns when it is done.
//
// Contract:
//   - in is nil for the first stage of a Graph, which must therefore
//     be a source (a stage that ignores in). For every other stage, in
//     runs the upstream stages, calling step once per upstream pair in
//     stream order; a stage calls it at most once.
//   - emit is called synchronously: when it returns, every stage
//     downstream has finished with the pair.
//   - A Stage instance is single-use: it may own per-run state (RNG,
//     dedup map), so build a fresh instance for every Graph run.
type Stage interface {
	Name() string
	Run(in func(step func(Pair)), emit func(Pair))
}

// CounterStage is implemented by stages that report extra counters
// (dedup hits, per-origin variant counts) into their Stats snapshot.
// Counters is called once, after the run.
type CounterStage interface {
	Stage
	Counters() map[string]int64
}

// Stats is one stage's instrumentation snapshot after a Graph run.
// WallNS is the stage's self time: the time spent in its own code,
// excluding the upstream stages it pulls from and the downstream
// stages its emits run, so the stages' WallNS add up to the run.
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
// always a prefix of the canonical stream.
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

// stopSentinel is the panic the graph's emit wrappers raise to unwind
// the chain once the run context is done or the caller's emit failed.
// It is how a stop reaches arbitrarily deep into a running stage — a
// source in the middle of a recursive generator included — without
// every stage having to poll a context. Run recovers it as a graceful
// stop, never as a StageError.
type stopSentinel struct{}

// Graph is a runnable chain of stages. Build one per run (stages are
// single-use), execute it with Run or Collect, then read Stats.
type Graph struct {
	stages []Stage
	stats  []Stats
}

// New chains stages into a graph; the first must be a source.
func New(stages ...Stage) *Graph {
	if len(stages) == 0 {
		panic("pipeline: empty graph")
	}
	return &Graph{stages: stages}
}

// run is the state of one Graph.Run: who is executing, since when,
// and each stage's last emitted pair for StageError.
type run struct {
	g    *Graph
	ctx  context.Context
	t0   time.Time
	cur  int     // executing stage; len(stages) is the caller's emit
	mark int64   // ns since t0 when cur started executing
	self []int64 // self time per stage, plus the caller's emit
	last []Pair
}

// enter charges the time since the last boundary to the executing
// stage and makes stage i the executing one: one clock read per
// crossing between stages.
func (r *run) enter(i int) {
	now := time.Since(r.t0).Nanoseconds()
	r.self[r.cur] += now - r.mark
	r.mark = now
	r.cur = i
}

// stream runs stage i with its output going to sink (stage i+1's step,
// or the caller's emit for the last stage).
func (r *run) stream(i int, sink func(Pair)) {
	var in func(func(Pair))
	if i > 0 {
		in = func(step func(Pair)) {
			r.enter(i - 1)
			r.stream(i-1, step)
			r.enter(i)
		}
	}
	st := &r.g.stats[i]
	r.g.stages[i].Run(in, func(p Pair) {
		if r.ctx.Err() != nil {
			panic(stopSentinel{})
		}
		st.Out++
		r.last[i] = p
		r.enter(i + 1)
		sink(p)
		r.enter(i)
	})
}

// Run executes the graph on the calling goroutine, calling emit for
// every pair the final stage produces, in order — constant memory for
// any corpus size.
//
// Failure contract (DESIGN.md, "Error contract"):
//   - A stage panic does not crash the caller: Run returns a
//     *StageError identifying the stage, stream position, and
//     recovered value. The pairs emitted before the error are a
//     prefix of the canonical stream. A panic in emit itself is
//     re-raised.
//   - When ctx is done, the next emit of any stage unwinds the chain
//     and Run returns ctx.Err(). Pairs already delivered remain a
//     valid prefix of the canonical stream.
//   - If emit returns an error, Run stops invoking it, unwinds the
//     upstream stages the same way, and returns that error.
//
// A nil ctx is treated as context.Background().
func (g *Graph) Run(ctx context.Context, emit func(Pair) error) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(g.stages)
	g.stats = make([]Stats, n)
	for i, st := range g.stages {
		g.stats[i].Stage = st.Name()
	}
	// An already-done context runs nothing.
	if err := ctx.Err(); err != nil {
		return err
	}
	r := &run{
		g:    g,
		ctx:  ctx,
		t0:   time.Now(), //lint:allow determinism WallNS is instrumentation; it never feeds the stream
		cur:  n - 1,
		self: make([]int64, n+1),
		last: make([]Pair, n),
	}
	var emitErr error
	defer func() {
		rec := recover()
		failed := r.cur
		r.enter(n)
		for i := range g.stats {
			g.stats[i].WallNS = r.self[i]
			if i > 0 {
				g.stats[i].In = g.stats[i-1].Out
			}
			if cs, ok := g.stages[i].(CounterStage); ok {
				g.stats[i].Extra = cs.Counters()
			}
		}
		_, stopped := rec.(stopSentinel)
		switch {
		case rec == nil:
			err = ctx.Err()
		case stopped:
			err = emitErr
			if err == nil {
				err = ctx.Err()
			}
		case failed < n:
			se := &StageError{Stage: g.stats[failed].Stage, Index: g.stats[failed].Out, Recovered: rec}
			if se.Index > 0 {
				last := r.last[failed]
				se.Last = &last
			}
			err = se
		default:
			panic(rec) // the caller's emit panicked
		}
	}()
	r.stream(n-1, func(p Pair) {
		if emitErr = emit(p); emitErr != nil {
			panic(stopSentinel{})
		}
	})
	return nil
}

// Collect runs the graph and returns every emitted pair. A stage
// panic is re-raised as a *StageError panic (Collect has no error
// return); callers that want the error instead use Run.
func (g *Graph) Collect() []Pair {
	var out []Pair
	if err := g.Run(context.Background(), func(p Pair) error {
		out = append(out, p)
		return nil
	}); err != nil {
		panic(err)
	}
	return out
}

// Stats returns the per-stage snapshot of the last Run or Collect.
func (g *Graph) Stats() []Stats { return g.stats }

// ---------------------------------------------------------------------
// Stage constructors.
// ---------------------------------------------------------------------

type sourceStage struct {
	name     string
	gen      func(emit func(Pair))
	counters func() map[string]int64
}

func (s *sourceStage) Name() string { return s.name }
func (s *sourceStage) Run(_ func(func(Pair)), emit func(Pair)) {
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
func (f *funcStage) Run(in func(func(Pair)), emit func(Pair)) {
	in(func(p Pair) { f.fn(p, emit) })
}
func (f *funcStage) Counters() map[string]int64 {
	if f.counters == nil {
		return nil
	}
	return f.counters()
}

// FuncWithCounters builds a per-item expander stage: fn is called once
// per input pair in stream order and may emit any number of outputs.
// It may keep state (a shared RNG, a dedup map) across calls.
// counters, when non-nil, is read after the run.
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
