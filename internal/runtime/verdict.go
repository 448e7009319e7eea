package runtime

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Shape is the serving layer's result-cache value for one question
// shape, the lemmatized anonymized question that every constant
// variation of it shares. It has two lock-free slots. The decode slot
// holds the shape's binding-independent decode; it is empty while no
// request has decoded the shape cleanly (every tier failed it, or a
// stage failed for reasons other than the question), and the first
// clean decode fills it. The verdict slot holds the outcome of the
// shape's latest deterministic finalize and the bindings it was
// reached for. The database is immutable for a model version and
// finalization is deterministic, so a later request with equal
// bindings may replay the verdict instead of finalizing, reviewing or
// decoding again.
type Shape struct {
	decode  atomic.Pointer[DecodeResult]
	verdict atomic.Pointer[Verdict]
}

// Verdict is one finalize's outcome for one set of bindings: the
// answer (the query, its tier and tier errors, and the critic's dry-run
// result when that ran the query to completion) or the failure. A
// recorded Verdict is shared by every request that replays it and is
// never mutated.
type Verdict struct {
	bindings   []Binding
	query      *sqlast.Query
	tier       string
	tierErrors []string
	result     *engine.Result
	err        error
}

// NewShape returns a shape holding dec (nil: no decode yet) and no
// verdict.
func NewShape(dec *DecodeResult) *Shape {
	s := &Shape{}
	s.decode.Store(dec)
	return s
}

// FailedShape is the cache value for a shape whose every tier failed
// deterministically: no decode, and err recorded as the verdict for
// bindings, so a repeat of that question replays the failure without
// decoding.
func FailedShape(bindings []Binding, err error) *Shape {
	s := &Shape{}
	s.verdict.Store(&Verdict{bindings: bindings, err: err})
	return s
}

// Decode returns the shape's decode, nil when it has none yet.
func (s *Shape) Decode() *DecodeResult { return s.decode.Load() }

// Lookup returns the recorded verdict when it was reached for
// bindings equal to these, and nil otherwise.
func (s *Shape) Lookup(bindings []Binding) *Verdict {
	v := s.verdict.Load()
	if v == nil || !slices.EqualFunc(v.bindings, bindings, sameBinding) {
		return nil
	}
	return v
}

// Record replaces the verdict slot with the outcome trace describes
// for bindings: q and trace's tier, tier errors and dry-run result, or
// err. A fresh decode dec (nil when the request decoded nothing) fills
// the decode slot if it is empty. The caller records only
// deterministic outcomes (no trace.Infra, a live request).
func (s *Shape) Record(bindings []Binding, q *sqlast.Query, dec *DecodeResult, trace *Trace, err error) {
	if dec != nil {
		s.decode.CompareAndSwap(nil, dec)
	}
	v := &Verdict{bindings: bindings, err: err}
	if err == nil {
		v.query, v.tier, v.result = q, trace.Tier, trace.Result
		v.tierErrors = slices.Clip(trace.TierErrors)
	}
	s.verdict.Store(v)
}

// Replay answers a request from the verdict: the recorded failure, or
// the query with trace given its tier, tier errors, final query and
// dry-run result. trace is marked Replayed either way.
func (v *Verdict) Replay(trace *Trace) (*sqlast.Query, error) {
	trace.Replayed = true
	if v.err != nil {
		return nil, v.err
	}
	trace.Tier, trace.TierErrors = v.tier, v.tierErrors
	trace.Final, trace.Result = v.query, v.result
	return v.query, nil
}

// sameBinding compares numbers bit for bit, so -0 and 0 (which restore
// to different SQL text) never share a verdict.
func sameBinding(a, b Binding) bool {
	return a.Placeholder == b.Placeholder && a.Value.IsNum == b.Value.IsNum &&
		a.Value.Str == b.Value.Str && math.Float64bits(a.Value.Num) == math.Float64bits(b.Value.Num)
}
