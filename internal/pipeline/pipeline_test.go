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

func collect(workers int, stages ...Stage) []Pair {
	return New(workers, stages...).Collect()
}

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

func TestMapOrderPreservedAtAnyWorkerCount(t *testing.T) {
	in := mk(500)
	upper := func(p Pair) Pair {
		p.NL = strings.ToUpper(p.NL)
		return p
	}
	want := collect(1, fromSlice(in), Map("upper", upper))
	for i, p := range want {
		if p.NL != strings.ToUpper(in[i].NL) {
			t.Fatalf("pair %d = %q, want uppercase of %q", i, p.NL, in[i].NL)
		}
	}
	for _, w := range []int{2, 3, 8, 16} {
		got := collect(w, fromSlice(in), Map("upper", upper))
		if !equalPairs(got, want) {
			t.Fatalf("workers=%d output differs from workers=1", w)
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
	got := collect(4, fromSlice(in), FuncWithCounters("expand", expand, nil))
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
	g := New(1, fromSlice(dups), Dedup())
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
	g := New(2,
		fromSlice(in),
		FuncWithCounters("keep", func(p Pair, emit func(Pair)) {
			if p.TemplateID != "T0" {
				emit(p)
			}
		}, nil),
		Map("id", func(p Pair) Pair { return p }),
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
}

func TestStreamStopsOnEmitError(t *testing.T) {
	in := mk(1000)
	wantErr := errors.New("disk full")
	n := 0
	err := New(4, fromSlice(in), Map("id", func(p Pair) Pair { return p })).Stream(func(p Pair) error {
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
	check("sequential", func() {
		collect(1, fromSlice(mk(10)), FuncWithCounters("bad", func(p Pair, emit func(Pair)) { panic("boom") }, nil))
	})
	check("parallel", func() {
		collect(8, fromSlice(mk(100)), Map("bad", func(p Pair) Pair { panic("boom") }))
	})
}

// drainGoroutines waits for transient graph goroutines to exit, then
// fails with a stack dump if the count never returns to the baseline.
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
	g := New(4,
		fromSlice(in),
		FuncWithCounters("explode", func(p Pair, emit func(Pair)) {
			if p.SQL == "SELECT 7" {
				fired = true
				panic("boom")
			}
			emit(p)
		}, nil),
	)
	got, err := g.CollectContext(context.Background())
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
	err := New(4, fromSlice(in), Map("id", func(p Pair) Pair { return p })).Run(ctx, func(p Pair) error {
		got = append(got, p)
		if len(got) == 25 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) < 25 || len(got) >= len(in) {
		t.Fatalf("delivered %d pairs, want a partial prefix >= 25", len(got))
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
	got, err := New(2, fromSlice(mk(100))).CollectContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("pre-cancelled run delivered %d pairs", len(got))
	}
}

func TestFailingStageLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// The fault sits behind a busy parallel upstream (many more pairs
	// than chanBuf) with a parallel stage downstream, so a stage left
	// blocked on a full channel would leak deterministically, and the
	// sentinel/drain interplay of both neighbours is exercised.
	for _, workers := range []int{1, 8} {
		g := New(workers,
			fromSlice(mk(4000)),
			Map("id", func(p Pair) Pair { return p }),
			FuncWithCounters("bad", func(p Pair, emit func(Pair)) {
				if p.SQL == "SELECT 100" {
					panic("boom")
				}
				emit(p)
			}, nil),
			Map("down", func(p Pair) Pair { return p }),
		)
		_, err := g.CollectContext(context.Background())
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err = %v, want *StageError", workers, err)
		}
		if se.Stage != "bad" {
			t.Fatalf("workers=%d: failing stage = %q", workers, se.Stage)
		}
	}
	drainGoroutines(t, baseline)
}

func TestStageErrorPrefixWorkerInvariant(t *testing.T) {
	run := func(workers int) ([]Pair, *StageError) {
		g := New(workers,
			fromSlice(mk(300)),
			Map("bad", func(p Pair) Pair {
				if p.SQL == "SELECT 123" {
					panic("boom")
				}
				return p
			}),
		)
		got, err := g.CollectContext(context.Background())
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		return got, se
	}
	got1, se1 := run(1)
	got16, se16 := run(16)
	if se1.Index != 123 || se16.Index != se1.Index {
		t.Fatalf("fault index not worker-invariant: %d vs %d", se1.Index, se16.Index)
	}
	if !equalPairs(got1, got16) {
		t.Fatalf("prefix not worker-invariant: %d vs %d pairs", len(got1), len(got16))
	}
}
