// Package fault is the repository's deterministic fault-injection
// harness: a seed-driven Injector decides, purely from an item index,
// whether a fault fires, and thin wrappers thread that decision into
// the three plug-in seams of the system — a pipeline Stage, an
// io.Writer, and a models.Translator. Because firing depends only on
// (seed, index) — the same SplitMix64 derivation the rest of the
// repository uses for RNG streams — an injected fault lands on the
// same item at any worker count, which is what lets the chaos tests
// assert exact prefixes and byte-identical resume behaviour instead
// of "it eventually failed somewhere".
package fault

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// Kind selects what an armed injection site does when it fires.
type Kind int

// Injection kinds.
const (
	// Panic panics with an "injected panic" value.
	Panic Kind = iota
	// Error returns an injected error (writers) or a nil/empty result
	// (translators, whose contract has no error return).
	Error
	// Delay sleeps for the configured duration, then proceeds
	// normally — the shape of a slow, not broken, dependency.
	Delay
	// Truncate writes only half of the buffer and then fails — the
	// torn-write shape that atomic checkpointing must survive.
	Truncate
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injector decides deterministically whether the fault fires at an
// item index: it fires when SplitMix64(seed, index) mod oneIn == 0.
// oneIn <= 0 never fires (a disarmed injector, including nil, is a
// no-op), oneIn == 1 fires on every index. The decision depends only
// on (seed, index) — never on scheduling, worker count, or wall
// clock.
type Injector struct {
	seed  int64
	oneIn int
}

// NewInjector returns an injector firing on roughly one in oneIn
// indices, selected by seed.
func NewInjector(seed int64, oneIn int) *Injector {
	return &Injector{seed: seed, oneIn: oneIn}
}

// Fires reports whether the fault fires at index i.
func (inj *Injector) Fires(i int) bool {
	if inj == nil || inj.oneIn <= 0 {
		return false
	}
	return uint64(par.SplitSeed(inj.seed, i))%uint64(inj.oneIn) == 0
}

// ---------------------------------------------------------------------
// Pipeline stage wrapper.
// ---------------------------------------------------------------------

type faultStage struct {
	inner pipeline.Stage
	inj   *Injector
	kind  Kind
	delay time.Duration
}

// Stage wraps a pipeline stage so the configured fault fires just
// before the inner stage's i-th emitted pair leaves it, for every i
// the injector selects (kinds: Panic, Delay). Stages emit serially
// and in a worker-count-invariant order, so the fault position in the
// stream is deterministic.
//
//lint:allow deadcode test hook: pipeline chaos tests inject stage panics through it
func Stage(inner pipeline.Stage, inj *Injector, kind Kind, delay time.Duration) pipeline.Stage {
	return &faultStage{inner: inner, inj: inj, kind: kind, delay: delay}
}

// Name implements pipeline.Stage.
func (s *faultStage) Name() string { return s.inner.Name() + "+fault" }

// Run implements pipeline.Stage.
func (s *faultStage) Run(in func(func(pipeline.Pair)), emit func(pipeline.Pair)) {
	i := 0
	s.inner.Run(in, func(p pipeline.Pair) {
		if s.inj.Fires(i) {
			switch s.kind {
			case Delay:
				time.Sleep(s.delay)
			default:
				panic(fmt.Sprintf("fault: injected panic at pair %d of stage %q", i, s.inner.Name()))
			}
		}
		i++
		emit(p)
	})
}

// ---------------------------------------------------------------------
// io.Writer wrapper.
// ---------------------------------------------------------------------

// Writer wraps an io.Writer so the configured fault fires on the
// write calls the injector selects, by call index (kinds: Error,
// Truncate). A truncated write forwards half the buffer first — the
// torn-file shape checkpointing must tolerate.
type Writer struct {
	w     io.Writer
	inj   *Injector
	kind  Kind
	calls int
}

// NewWriter wraps w.
//
//lint:allow deadcode test hook: checkpoint chaos tests tear writes through it
func NewWriter(w io.Writer, inj *Injector, kind Kind) *Writer {
	return &Writer{w: w, inj: inj, kind: kind}
}

// Write implements io.Writer.
func (fw *Writer) Write(p []byte) (int, error) {
	i := fw.calls
	fw.calls++
	if !fw.inj.Fires(i) {
		return fw.w.Write(p)
	}
	if fw.kind == Truncate && len(p) > 0 {
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("fault: injected truncated write at call %d", i)
	}
	return 0, fmt.Errorf("fault: injected write error at call %d", i)
}

// ---------------------------------------------------------------------
// models.Translator wrapper.
// ---------------------------------------------------------------------

// Translator wraps a models.Translator so the configured fault fires
// on the Translate calls the injector selects, by call index (kinds:
// Panic, Error — which returns no output, the only failure shape the
// Translator contract can express — and Delay). The call counter is
// atomic: eval calls Translate concurrently.
type Translator struct {
	inner models.Translator
	inj   *Injector
	kind  Kind
	delay time.Duration
	calls atomic.Int64
}

// NewTranslator wraps inner.
//
//lint:allow deadcode test hook: fallback chaos tests fail the primary tier through it
func NewTranslator(inner models.Translator, inj *Injector, kind Kind, delay time.Duration) *Translator {
	return &Translator{inner: inner, inj: inj, kind: kind, delay: delay}
}

// Name implements models.Translator.
func (ft *Translator) Name() string { return ft.inner.Name() + "+fault" }

// Train implements models.Translator (passes through unfaulted).
func (ft *Translator) Train(examples []models.Example) { ft.inner.Train(examples) }

// Translate implements models.Translator.
func (ft *Translator) Translate(nl, schemaToks []string) []string {
	i := int(ft.calls.Add(1)) - 1
	if ft.inj.Fires(i) {
		switch ft.kind {
		case Panic:
			panic(fmt.Sprintf("fault: injected panic at translate call %d", i))
		case Delay:
			time.Sleep(ft.delay)
		default:
			return nil
		}
	}
	return ft.inner.Translate(nl, schemaToks)
}

// ---------------------------------------------------------------------
// Identifier-typo wrapper.
// ---------------------------------------------------------------------

// Typos wraps a models.Translator and mangles the column identifiers
// in its output — the repairable-mistake generator that dbpal-eval's
// -corrupt mode and the critic's strict-improvement tests drive.
// Unlike the call-indexed Translator wrapper, the injector here keys
// on a content hash of the question, so which questions get corrupted
// is a pure function of the workload — invariant under eval worker
// count and call order.
type Typos struct {
	inner models.Translator
	inj   *Injector
	cols  map[string]bool
}

// NewTypos wraps inner; columns is the lexicon of column names whose
// occurrences in the decoded tokens get mangled.
func NewTypos(inner models.Translator, inj *Injector, columns []string) *Typos {
	cols := make(map[string]bool, len(columns))
	for _, c := range columns {
		cols[strings.ToLower(c)] = true
	}
	return &Typos{inner: inner, inj: inj, cols: cols}
}

// Name implements models.Translator.
func (tt *Typos) Name() string { return tt.inner.Name() + "+typos" }

// Train implements models.Translator (passes through uncorrupted).
func (tt *Typos) Train(examples []models.Example) { tt.inner.Train(examples) }

// Translate implements models.Translator.
func (tt *Typos) Translate(nl, schemaToks []string) []string {
	out := tt.inner.Translate(nl, schemaToks)
	if tt.inj.Fires(contentIndex(nl)) {
		return tt.mangle(out)
	}
	return out
}

// TranslateK surfaces the inner model's beam when it has one,
// corrupting every candidate of a selected question alike.
func (tt *Typos) TranslateK(nl, schemaToks []string, k int) [][]string {
	type kTranslator interface {
		TranslateK(nl, schemaToks []string, k int) [][]string
	}
	var beam [][]string
	if inner, ok := tt.inner.(kTranslator); ok {
		beam = inner.TranslateK(nl, schemaToks, k)
	} else if out := tt.inner.Translate(nl, schemaToks); len(out) > 0 {
		beam = [][]string{out}
	}
	if !tt.inj.Fires(contentIndex(nl)) {
		return beam
	}
	res := make([][]string, len(beam))
	for i, cand := range beam {
		res[i] = tt.mangle(cand)
	}
	return res
}

// mangle drops the last character of every token that names a known
// column ("price" -> "pric", "fleet_size" -> "fleet_siz"): an
// unknown-column typo that fails execution but sits near its origin in
// a repair lexicon. Short names are left alone so the typo stays
// recognisably close to the original, and placeholders (@TABLE.COL)
// are never touched.
func (tt *Typos) mangle(toks []string) []string {
	out := make([]string, len(toks))
	for i, tok := range toks {
		out[i] = tok
		if len(tok) < 4 || strings.HasPrefix(tok, "@") || !tt.cols[strings.ToLower(tok)] {
			continue
		}
		out[i] = tok[:len(tok)-1]
	}
	return out
}

// contentIndex hashes question tokens into an injector index, so the
// corruption decision depends only on the question itself.
func contentIndex(nl []string) int {
	h := fnv.New32a()
	for _, tok := range nl {
		_, _ = h.Write([]byte(tok)) // fnv Write cannot fail
		_, _ = h.Write([]byte{0})
	}
	return int(h.Sum32() & 0x7fffffff)
}
