package main

import (
	"context"
	"encoding/json"
	"slices"
	"sort"
	"time"

	"repro/internal/sqlast"
)

// window is the width of the fixed time windows ask_rps is taken over.
const window = 250 * time.Millisecond

// phase is the measured part of a run. The request list is split into
// one segment per set-up: the first set-up's server answers every
// segment, each sent right after the next set-up finishes, so the
// samples spread over the run's whole wall time rather than one
// stretch of it, and the machine's drift within a run averages out.
type phase struct {
	plan          *plan
	segments      [][]result
	before, after map[string]any // /statsz around the measured list
	setups        []float64      // seconds per train + boot
	bootMS        float64        // the last boot's time to ready
	rssMB         float64        // the serving process's VmHWM
	accuracy      float64
}

// runPhase performs the set-ups and sends the warm list (untimed) and
// the measured segments, snapshotting /statsz around the measured part.
// makePlan builds the request lists once the first set-up has trained
// the model, before its server boots.
func runPhase(ctx context.Context, o options, sp spec, makePlan func() (*plan, error), work, model string, setups int) (*phase, error) {
	ph := &phase{}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var srv *server
	defer func() { srv.stop() }()
	var p *plan
	for i := 0; i < setups; i++ {
		tr, err := train(ctx, o.bin, work, sp.schema, model)
		if err != nil {
			return nil, err
		}
		if p == nil {
			if p, err = makePlan(); err != nil {
				return nil, err
			}
			ph.plan = p
		}
		s, boot, err := startServer(o.bin, work, sp.schema, model, i)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, (tr + boot).Seconds())
		ph.bootMS = float64(boot) / 1e6
		if srv == nil {
			srv = s
			drive(ctx, hc, srv.base, sp.schema, p.warm)
			if ph.before, err = srv.statsz(); err != nil {
				return nil, err
			}
		} else {
			// Booted for its set-up time only; the first server keeps
			// serving, with its cache as the earlier segments left it.
			s.stop()
		}
		n := len(p.measured)
		lo, hi := i*n/setups, (i+1)*n/setups
		seg := drive(ctx, hc, srv.base, sp.schema, p.measured[lo:hi])
		for j := range seg {
			seg[j].idx += lo
		}
		ph.segments = append(ph.segments, seg)
	}
	var err error
	if ph.after, err = srv.statsz(); err != nil {
		return nil, err
	}
	if ph.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return ph, nil
}

// results flattens the segments.
func (ph *phase) results() []result {
	var out []result
	for _, seg := range ph.segments {
		out = append(out, seg...)
	}
	return out
}

// askBody is the part of an ask response the harness checks.
type askBody struct {
	SQL     string     `json:"sql"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// score accounts every ask: a non-200 or an expired client deadline is
// a failed operation; a 200 with a malformed body or an SQL string that
// does not re-parse makes the run incorrect; a wrong answer only lowers
// answer accuracy.
func (ph *phase) score(list []request, golds map[string]answer) report {
	rs := ph.results()
	rep := report{Correct: true, Attempted: len(rs)}
	right := 0
	for _, r := range rs {
		if r.status != 200 {
			rep.Failed++
			continue
		}
		var b askBody
		if err := json.Unmarshal(r.body, &b); err != nil || b.SQL == "" {
			rep.Correct = false
			continue
		}
		if _, err := sqlast.Parse(b.SQL); err != nil {
			rep.Correct = false
			continue
		}
		if slices.Equal(answerOf(len(b.Columns), b.Rows), golds[list[r.idx].NL]) {
			right++
		}
	}
	ph.accuracy = float64(right) / float64(rep.Attempted)
	return rep
}

// statuses counts the measured asks by HTTP status (0 = no response
// within the client deadline).
func (ph *phase) statuses() map[int]int {
	out := map[int]int{}
	for _, r := range ph.results() {
		out[r.status]++
	}
	return out
}

// latenciesMS returns the successful asks' latencies, ascending.
func (ph *phase) latenciesMS() []float64 {
	var out []float64
	for _, r := range ph.results() {
		if r.status == 200 {
			out = append(out, float64(r.end-r.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// windowRPS is successful completions per second over the full fixed
// windows of every segment, taken as the mean of the middle half of
// the per-window counts: like a median it ignores windows a stall
// emptied or a burst filled, but it does not snap to multiples of
// 1/window.
func (ph *phase) windowRPS() float64 {
	var counts []float64
	for _, seg := range ph.segments {
		first, last := bounds(seg)
		full := int((last - first) / window)
		c := make([]float64, full)
		for _, r := range seg {
			if w := int((r.end - first) / window); r.status == 200 && w < full {
				c[w]++
			}
		}
		counts = append(counts, c...)
	}
	if len(counts) < 4 {
		return float64(len(ph.latenciesMS())) / ph.wall().Seconds()
	}
	sort.Float64s(counts)
	mid := counts[len(counts)/4 : len(counts)-len(counts)/4]
	sum := 0.0
	for _, c := range mid {
		sum += c
	}
	return sum / float64(len(mid)) / window.Seconds()
}

// wall is the time spent sending segments.
func (ph *phase) wall() time.Duration {
	var d time.Duration
	for _, seg := range ph.segments {
		first, last := bounds(seg)
		d += last - first
	}
	return d
}

// bounds are a segment's first send and last answer.
func bounds(seg []result) (first, last time.Duration) {
	first = -1
	for _, r := range seg {
		if first < 0 || r.start < first {
			first = r.start
		}
		if r.end > last {
			last = r.end
		}
	}
	return first, last
}

// counters derives the per-layer program counters from the /statsz
// snapshots around the measured list. A section the server does not
// report reads as zero.
func (ph *phase) counters(tenantName string) map[string]float64 {
	b, a := section(ph.before, tenantName), section(ph.after, tenantName)
	delta := func(path ...string) float64 {
		x, _ := num(a, path...)
		y, _ := num(b, path...)
		return x - y
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	m := map[string]float64{}
	hits := delta("cache", "hits")
	m["cache.hit_frac"] = ratio(hits, hits+delta("cache", "misses")+delta("cache", "coalesced"))
	m["cache.evictions"] = delta("cache", "evictions")
	m["cache.entries"], _ = num(a, "cache", "entries")

	batches := delta("batcher", "batches")
	m["serve.batch_mean"] = ratio(delta("batcher", "items"), batches)
	m["serve.batch_timer_frac"] = ratio(delta("batcher", "flush_wait"), batches)

	// Answers by tier; the nearest-neighbor tier is the fallback.
	answered, fallback := 0.0, 0.0
	tiers, _ := a["tiers"].(map[string]any)
	for name := range tiers {
		n := delta("tiers", name)
		answered += n
		if name == "template-nn" {
			fallback += n
		}
	}
	m["models.fallback_frac"] = ratio(fallback, answered)
	m["serve.shed"] = delta("shed")
	m["serve.timeouts"] = delta("timeouts")
	return m
}
