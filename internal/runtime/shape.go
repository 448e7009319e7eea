package runtime

import "sync/atomic"

// Shape is the serving layer's result-cache value for one question
// shape, the lemmatized anonymized question that every constant
// variation of it shares. Its one lock-free slot holds the shape's
// binding-independent decode. The slot is empty while no request has
// decoded the shape cleanly (every tier failed it, or a stage failed
// for reasons other than the question), and the first clean decode
// fills it.
type Shape struct {
	decode atomic.Pointer[DecodeResult]
}

// NewShape returns a shape holding dec (nil: no decode yet).
func NewShape(dec *DecodeResult) *Shape {
	s := &Shape{}
	s.decode.Store(dec)
	return s
}

// Decode returns the shape's decode, nil when it has none yet.
func (s *Shape) Decode() *DecodeResult { return s.decode.Load() }

// Record fills the decode slot with dec if it is empty. The caller
// records only a clean decode (no trace.Infra, a live request).
func (s *Shape) Record(dec *DecodeResult) { s.decode.CompareAndSwap(nil, dec) }
