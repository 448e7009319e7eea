package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// mk builds a deterministic test stream of n distinct pairs.
func mk(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{
			NL:         fmt.Sprintf("show row %d", i),
			SQL:        fmt.Sprintf("SELECT %d", i),
			TemplateID: fmt.Sprintf("T%d", i%7),
		}
	}
	return out
}

// fromSlice is a source stage replaying pairs.
func fromSlice(pairs []Pair) Stage {
	return Source("src", func(emit func(Pair)) {
		for _, p := range pairs {
			emit(p)
		}
	})
}

func collect(stages ...Stage) []Pair {
	return New(stages...).Collect()
}

// collectErr runs g and returns the pairs delivered and the run error.
func collectErr(ctx context.Context, g *Graph) ([]Pair, error) {
	var out []Pair
	err := g.Run(ctx, func(p Pair) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

// perPair builds a stage that maps each pair through fn.
func perPair(name string, fn func(Pair) Pair) Stage {
	return FuncWithCounters(name, func(p Pair, emit func(Pair)) { emit(fn(p)) }, nil)
}

func identity(p Pair) Pair { return p }

func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPerPairStepsPreserveOrder(t *testing.T) {
	in := mk(500)
	upper := func(p Pair) Pair {
		p.NL = strings.ToUpper(p.NL)
		return p
	}
	got := collect(fromSlice(in), perPair("upper", upper), perPair("id", identity))
	if len(got) != len(in) {
		t.Fatalf("%d pairs out, want %d", len(got), len(in))
	}
	for i, p := range got {
		if p.NL != strings.ToUpper(in[i].NL) || p.SQL != in[i].SQL {
			t.Fatalf("pair %d = %+v, want uppercase of %+v", i, p, in[i])
		}
	}
}

func TestFuncExpandsInOrder(t *testing.T) {
	in := mk(50)
	expand := func(p Pair, emit func(Pair)) {
		emit(p)
		v := p
		v.Origin = "copy"
		emit(v)
	}
	got := collect(fromSlice(in), FuncWithCounters("expand", expand, nil))
	if len(got) != 2*len(in) {
		t.Fatalf("expanded to %d pairs, want %d", len(got), 2*len(in))
	}
	for i, p := range in {
		if got[2*i] != p || got[2*i+1].Origin != "copy" || got[2*i+1].NL != p.NL {
			t.Fatalf("expansion order broken at %d", i)
		}
	}
}

func TestDedupDropsExactDuplicates(t *testing.T) {
	in := mk(10)
	dups := append(append([]Pair{}, in...), in[2], in[5], in[5])
	// Duplicate text with different provenance must still be dropped.
	alt := in[7]
	alt.Origin = "paraphrase"
	dups = append(dups, alt)
	g := New(fromSlice(dups), Dedup())
	got := g.Collect()
	if !equalPairs(got, in) {
		t.Fatalf("dedup output = %d pairs, want the %d originals in order", len(got), len(in))
	}
	st := g.Stats()
	if st[1].Extra["dedup_hits"] != 4 {
		t.Fatalf("dedup_hits = %d, want 4", st[1].Extra["dedup_hits"])
	}
}

func TestStatsCountsAndLinks(t *testing.T) {
	in := mk(30)
	g := New(
		fromSlice(in),
		FuncWithCounters("keep", func(p Pair, emit func(Pair)) {
			if p.TemplateID != "T0" {
				emit(p)
			}
		}, nil),
		perPair("id", identity),
	)
	out := g.Collect()
	st := g.Stats()
	if len(st) != 3 || st[0].Stage != "src" || st[1].Stage != "keep" || st[2].Stage != "id" {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Out != int64(len(in)) || st[1].In != st[0].Out || st[2].In != st[1].Out || st[2].Out != int64(len(out)) {
		t.Fatalf("in/out links broken: %+v", st)
	}
	if st[1].Out >= st[1].In {
		t.Fatal("filter stats did not record drops")
	}
	for _, s := range st {
		if s.WallNS <= 0 {
			t.Fatalf("stage %q has no self time: %+v", s.Stage, st)
		}
	}
}

// TestStatsChargeEachStageItsOwnTime checks that WallNS is each stage's own time:
// a stage that busy-waits per pair is charged for it, and its
// neighbours are not.
func TestStatsChargeEachStageItsOwnTime(t *testing.T) {
	const spinTime = 400 * time.Microsecond
	spin := func(p Pair) Pair {
		start := time.Now()
		for time.Since(start) < spinTime {
		}
		return p
	}
	g := New(fromSlice(mk(50)), perPair("id", identity), perPair("spin", spin), perPair("id2", identity))
	start := time.Now()
	g.Collect()
	wall := time.Since(start).Nanoseconds()
	st := g.Stats()
	var sum int64
	for _, s := range st {
		sum += s.WallNS
	}
	spent := st[2].WallNS
	if spent < int64(50*spinTime) {
		t.Fatalf("spin stage self time %d ns, want >= %d: %+v", spent, int64(50*spinTime), st)
	}
	for i, s := range st {
		if i != 2 && s.WallNS > spent/2 {
			t.Fatalf("stage %q was charged %d ns of the spin stage's %d: %+v", s.Stage, s.WallNS, spent, st)
		}
	}
	if sum > wall {
		t.Fatalf("self times sum to %d ns, more than the run's %d ns", sum, wall)
	}
}

func TestStreamStopsOnEmitError(t *testing.T) {
	in := mk(1000)
	wantErr := errors.New("disk full")
	n, produced := 0, 0
	src := Source("src", func(emit func(Pair)) {
		for _, p := range in {
			produced++
			emit(p)
		}
	})
	err := New(src, perPair("id", identity)).Run(context.Background(), func(p Pair) error {
		n++
		if n == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if n != 10 {
		t.Fatalf("emit called %d times after error", n)
	}
	if produced != 10 {
		t.Fatalf("source produced %d pairs, want it stopped at the failed emit (10)", produced)
	}
}

func TestStagePanicPropagates(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: stage panic was swallowed", name)
			}
			if !strings.Contains(fmt.Sprint(r), "boom") {
				t.Fatalf("%s: panic %v does not carry the cause", name, r)
			}
		}()
		f()
	}
	check("step", func() {
		collect(fromSlice(mk(10)), FuncWithCounters("bad", func(p Pair, emit func(Pair)) { panic("boom") }, nil))
	})
	check("source", func() {
		collect(Source("bad", func(emit func(Pair)) { panic("boom") }), perPair("id", identity))
	})
	check("emit", func() {
		New(fromSlice(mk(10))).Run(context.Background(), func(Pair) error { panic("boom") })
	})
}

// drainGoroutines waits for goroutines started by other tests to exit,
// then fails with a stack dump if the count never returns to the
// baseline: a graph run must leave none behind.
func drainGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

func TestRunReturnsStageErrorNotPanic(t *testing.T) {
	in := mk(50)
	var fired bool
	g := New(
		fromSlice(in),
		FuncWithCounters("explode", func(p Pair, emit func(Pair)) {
			if p.SQL == "SELECT 7" {
				fired = true
				panic("boom")
			}
			emit(p)
		}, nil),
	)
	got, err := collectErr(context.Background(), g)
	if !fired {
		t.Fatal("fault never fired")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "explode" || se.Index != 7 {
		t.Fatalf("StageError = %+v", se)
	}
	if se.Last == nil || se.Last.SQL != "SELECT 6" {
		t.Fatalf("StageError.Last = %+v", se.Last)
	}
	if len(got) != 7 {
		t.Fatalf("delivered %d pairs before the fault, want 7", len(got))
	}
}

func TestRunCancelledReturnsPrefix(t *testing.T) {
	baseline := runtime.NumGoroutine()
	in := mk(5000)
	ctx, cancel := context.WithCancel(context.Background())
	var got []Pair
	err := New(fromSlice(in), perPair("id", identity)).Run(ctx, func(p Pair) error {
		got = append(got, p)
		if len(got) == 25 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The source's next emit sees the cancellation, so nothing past the
	// pair that cancelled is delivered.
	if len(got) != 25 {
		t.Fatalf("delivered %d pairs, want the 25 before the cancel", len(got))
	}
	for i, p := range got {
		if p != in[i] {
			t.Fatalf("delivered pairs are not a prefix at %d", i)
		}
	}
	drainGoroutines(t, baseline)
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := collectErr(ctx, New(fromSlice(mk(100))))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("pre-cancelled run delivered %d pairs", len(got))
	}
}

func TestFailingStageLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// The fault sits between two other per-pair stages, so the error
	// must name the stage that was running, not its upstream or its
	// downstream.
	g := New(
		fromSlice(mk(4000)),
		perPair("id", identity),
		FuncWithCounters("bad", func(p Pair, emit func(Pair)) {
			if p.SQL == "SELECT 100" {
				panic("boom")
			}
			emit(p)
		}, nil),
		perPair("down", identity),
	)
	got, err := collectErr(context.Background(), g)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "bad" || se.Index != 100 || len(got) != 100 {
		t.Fatalf("StageError = %+v after %d pairs, want stage bad at 100", se, len(got))
	}
	drainGoroutines(t, baseline)
}

func TestStageErrorPrefix(t *testing.T) {
	in := mk(300)
	g := New(
		fromSlice(in),
		perPair("bad", func(p Pair) Pair {
			if p.SQL == "SELECT 123" {
				panic("boom")
			}
			return p
		}),
	)
	got, err := collectErr(context.Background(), g)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if se.Index != 123 || se.Last == nil || *se.Last != in[122] {
		t.Fatalf("StageError = %+v, want index 123 after pair 122", se)
	}
	if !equalPairs(got, in[:123]) {
		t.Fatalf("delivered %d pairs, want the canonical prefix of 123", len(got))
	}
}
