package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one ask share Req;
// setup spans use Req -1. Parent is the enclosing span's ID (-1 at the
// root).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for a single-threaded replay; the
// open-span stack supplies each new span's parent.
type tracer struct {
	base  time.Time
	spans []span
	open  []int32
	req   int32
	off   bool // warm-up replay: run the layers, record nothing
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity), req: -1}
}

func (t *tracer) begin(name string) int32 {
	if t.off {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req, Start: int64(time.Since(t.base))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
	t.open = t.open[:len(t.open)-1]
}

// timed wraps f in a span.
func (t *tracer) timed(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// layerStats is one span name's aggregate: call count, total self time
// (duration minus the time its child spans cover) and the longest
// single call.
type layerStats struct {
	Calls  int
	SelfNS int64
	MaxNS  int64
}

func (l layerStats) meanSelfUS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Calls) / 1e3
}

// aggregate computes per-name self time over the spans of asks (Req >=
// 0) or of setup (Req < 0).
func (t *tracer) aggregate(asks bool) map[string]layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerStats{}
	for i, s := range t.spans {
		if (s.Req >= 0) != asks {
			continue
		}
		d := s.End - s.Start
		l := out[s.Name]
		l.Calls++
		l.SelfNS += d - child[i]
		if d > l.MaxNS {
			l.MaxNS = d
		}
		out[s.Name] = l
	}
	return out
}

// layerSumsUS returns, per ask, the total duration of the root span's
// direct children: the time the ask spent inside layer calls.
func (t *tracer) layerSumsUS() []float64 {
	sums := map[int32]int64{}
	for _, s := range t.spans {
		if s.Req >= 0 && s.Parent >= 0 && t.spans[s.Parent].Parent < 0 {
			sums[s.Req] += s.End - s.Start
		}
	}
	out := make([]float64, 0, len(sums))
	for _, ns := range sums {
		out = append(out, float64(ns)/1e3)
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNS measures what recording one span costs, so the replay can
// report its own overhead.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer(n)
	t.req = 0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate"))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
