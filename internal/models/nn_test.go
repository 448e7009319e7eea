package models_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/spider"
	"repro/internal/tokens"
)

// refNearest is the nearest-neighbor tier as a plain scan: one token
// set per example, the Jaccard similarity of the question's set against
// each in stored order, the first strict maximum kept. The postings
// index must answer every question exactly as it does.
type refNearest struct {
	examples []models.Example
	sets     []map[string]bool
}

func newRefNearest(examples []models.Example) *refNearest {
	r := &refNearest{examples: examples, sets: make([]map[string]bool, len(examples))}
	for i, ex := range examples {
		r.sets[i] = tokenSet(ex.NL)
	}
	return r
}

func (r *refNearest) Translate(nl []string) []string {
	q := tokenSet(nl)
	if len(q) == 0 || len(r.examples) == 0 {
		return nil
	}
	best, bestSim := -1, -1.0
	for i, s := range r.sets {
		if sim := jaccard(q, s); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 || bestSim <= 0 {
		return nil
	}
	return append([]string(nil), r.examples[best].SQL...)
}

func tokenSet(toks []string) map[string]bool {
	s := make(map[string]bool, len(toks))
	for _, t := range toks {
		s[t] = true
	}
	return s
}

func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// denseNearest is the same scan over interned token ids: each example
// the list of its distinct ids, the question a mark per id. It visits
// every example in stored order and scores it with the same float64
// expression as jaccard, so it answers as refNearest does (checked on
// the benchmark questions) at a hundredth of the cost, which lets the
// corpus-wide comparison cover thousands of questions.
type denseNearest struct {
	ids map[string]int32
	set []int32 // example i's distinct ids: set[off[i]:off[i+1]]
	off []int
	sql [][]string
}

func newDenseNearest(examples []models.Example) *denseNearest {
	d := &denseNearest{ids: map[string]int32{}, off: []int{0}}
	for _, ex := range examples {
		start := len(d.set)
		for _, t := range ex.NL {
			id, ok := d.ids[t]
			if !ok {
				id = int32(len(d.ids))
				d.ids[t] = id
			}
			if !slices.Contains(d.set[start:], id) {
				d.set = append(d.set, id)
			}
		}
		d.off = append(d.off, len(d.set))
		d.sql = append(d.sql, ex.SQL)
	}
	return d
}

func (d *denseNearest) Translate(nl []string) []string {
	q := tokenSet(nl)
	if len(q) == 0 || len(d.sql) == 0 {
		return nil
	}
	in := make([]bool, len(d.ids))
	for t := range q {
		if id, ok := d.ids[t]; ok {
			in[id] = true
		}
	}
	best, bestSim := -1, -1.0
	for i := range d.sql {
		set := d.set[d.off[i]:d.off[i+1]]
		inter := 0
		for _, id := range set {
			if in[id] {
				inter++
			}
		}
		sim := 0.0
		if len(set) > 0 {
			sim = float64(inter) / float64(len(q)+len(set)-inter)
		}
		if sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 || bestSim <= 0 {
		return nil
	}
	return append([]string(nil), d.sql[best]...)
}

// nnCorpus is the Patients corpus (seed 1) as the serving fallback tier
// indexes it.
var nnCorpus = sync.OnceValue(func() []models.Example {
	s := patients.Schema()
	return models.PairExamples(core.New(s, core.DefaultParams(), 1).Run(), s)
})

// patientsQuestions are the 399 Patients benchmark questions as the
// runtime hands them to every tier: constants anonymized, then
// lemmatized.
func patientsQuestions(tb testing.TB) [][]string {
	tb.Helper()
	db, err := patients.Database()
	if err != nil {
		tb.Fatal(err)
	}
	ph := runtime.NewParameterHandler(db)
	var out [][]string
	for _, c := range patients.Cases() {
		anon, err := ph.Anonymize(c.NL)
		if err != nil {
			tb.Fatalf("anonymize %q: %v", c.NL, err)
		}
		out = append(out, lemma.LemmatizeAll(anon.Tokens))
	}
	return out
}

// TestNearestNeighborMatchesReference: on the Patients corpus the
// postings index gives the reference scan's answer to the benchmark
// questions, to Spider workload questions, to random subsets of corpus
// questions with unknown and repeated tokens mixed in, and to the empty
// question; and on hand-built examples it breaks ties toward the lowest
// index whichever counts produce them. The map scan, at about 12 ms a
// question, checks the benchmark questions; its interned-id form checks
// them too and then the rest.
func TestNearestNeighborMatchesReference(t *testing.T) {
	exs := nnCorpus()
	nn := models.NewNearestNeighbor()
	nn.Train(exs)
	ref, dense := newRefNearest(exs), newDenseNearest(exs)

	same := func(got, want []string) bool {
		return slices.Equal(got, want) && (got == nil) == (want == nil)
	}
	bench := append(patientsQuestions(t), nil, []string{}, []string{"zzz-unknown"}, []string{""})
	for i, q := range bench {
		got, want := nn.Translate(q, nil), ref.Translate(q)
		if !same(got, want) {
			t.Fatalf("benchmark question %d %q: index answered %q, map scan %q", i, q, got, want)
		}
		if d := dense.Translate(q); !same(d, want) {
			t.Fatalf("benchmark question %d %q: interned scan answered %q, map scan %q", i, q, d, want)
		}
	}

	var qs [][]string
	for _, q := range spider.Workload(patients.Schema(), 3000, 11) {
		qs = append(qs, lemma.LemmatizeAll(tokens.Tokenize(q.NL)))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		src := exs[rng.Intn(len(exs))].NL
		var q []string
		for _, tok := range src {
			switch r := rng.Intn(8); {
			case r < 4:
				q = append(q, tok)
			case r == 4:
				q = append(q, tok, tok)
			case r == 5:
				q = append(q, fmt.Sprintf("unknown%d", rng.Intn(5)))
			}
		}
		rng.Shuffle(len(q), func(a, b int) { q[a], q[b] = q[b], q[a] })
		qs = append(qs, q)
	}
	answered := 0
	for i, q := range qs {
		got, want := nn.Translate(q, nil), dense.Translate(q)
		if !same(got, want) {
			t.Fatalf("question %d %q: index answered %q, reference %q", i, q, got, want)
		}
		if got != nil {
			answered++
		}
	}
	t.Logf("%d benchmark and %d other questions (%d answered) equal to the reference", len(bench), len(qs), answered)

	ex := func(nl, sql string) models.Example {
		return models.Example{NL: strings.Fields(nl), SQL: strings.Fields(sql)}
	}
	ties := []struct {
		name string
		exs  []models.Example
		q    string
		want string
	}{
		{"equal sets", []models.Example{ex("a b", "first"), ex("a b", "second")}, "a b", "first"},
		{"same counts", []models.Example{ex("a c", "first"), ex("a d", "second")}, "a b", "first"},
		// 2/4 and 1/2 are the same float64.
		{"different counts", []models.Example{ex("a b c d", "first"), ex("a", "second")}, "a b", "first"},
		{"different counts, reversed", []models.Example{ex("a", "first"), ex("a b c d", "second")}, "a b", "first"},
		{"later strictly better", []models.Example{ex("a c d", "first"), ex("a b", "second")}, "a b", "second"},
		{"repeated tokens", []models.Example{ex("a a a c", "first"), ex("b b", "second")}, "b a b", "second"},
		{"no shared token", []models.Example{ex("a", "first")}, "b", ""},
		{"empty example", []models.Example{ex("", "first"), ex("b", "second")}, "b", "second"},
	}
	for _, tc := range ties {
		nn := models.NewNearestNeighbor()
		nn.Train(tc.exs)
		q := strings.Fields(tc.q)
		got, want := nn.Translate(q, nil), newRefNearest(tc.exs).Translate(q)
		if !slices.Equal(got, want) {
			t.Errorf("%s: index answered %q, reference %q", tc.name, got, want)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s: answered %q, want %q", tc.name, got, tc.want)
		}
	}
}

// FuzzNearestNeighborMatchesReference: for any examples and question
// over a small vocabulary, where shared tokens, repeats and ties are
// common, the index answers as the reference scan does. The input's
// bytes are tokens; a byte ≡ 15 (mod 16) ends a segment, the first
// segment is the question and each later one an example.
func FuzzNearestNeighborMatchesReference(f *testing.F) {
	f.Add([]byte("ab\x0fab\x0fba"))
	f.Add([]byte("abc\x0fabcd\x0fa\x0fcc\x0f\x0fab"))
	f.Add([]byte("\x0fa"))
	f.Add([]byte("xyz\x0f\x0f\x0fxyzw\x0fzyx\x0fq"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var segs [][]string
		cur := []string{}
		for _, b := range data {
			if b%16 == 15 {
				segs = append(segs, cur)
				cur = []string{}
				continue
			}
			cur = append(cur, fmt.Sprintf("w%d", b%13))
		}
		segs = append(segs, cur)
		q := segs[0]
		var exs []models.Example
		for i, nl := range segs[1:] {
			exs = append(exs, models.Example{NL: nl, SQL: []string{fmt.Sprint(i)}})
		}
		nn := models.NewNearestNeighbor()
		nn.Train(exs)
		got, want := nn.Translate(q, nil), newRefNearest(exs).Translate(q)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("question %q over %d examples: index answered %q, reference %q", q, len(exs), got, want)
		}
	})
}

// TestNearestNeighborIndexHeap bounds what the Patients index keeps
// live beyond the examples it was trained on: the heap still retained
// after a collection. The examples' SQL slices are shared, not counted.
func TestNearestNeighborIndexHeap(t *testing.T) {
	const maxMB = 4.0
	exs := nnCorpus()
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	nn := models.NewNearestNeighbor()
	nn.Train(exs)
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	mb := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	goruntime.KeepAlive(nn)
	goruntime.KeepAlive(exs)
	t.Logf("index over %d examples retains %.2f MB", len(exs), mb)
	if mb > maxMB {
		t.Fatalf("index over %d examples retains %.2f MB after GC, want at most %.0f", len(exs), mb, maxMB)
	}
}

// BenchmarkNearestNeighbor times indexing the Patients corpus and
// answering the 399 benchmark questions from it:
//
//	go test -run '^$' -bench BenchmarkNearestNeighbor -benchmem ./internal/models/
func BenchmarkNearestNeighbor(b *testing.B) {
	exs := nnCorpus()
	b.Run("train", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			models.NewNearestNeighbor().Train(exs)
		}
	})
	b.Run("translate", func(b *testing.B) {
		qs := patientsQuestions(b)
		nn := models.NewNearestNeighbor()
		nn.Train(exs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn.Translate(qs[i%len(qs)], nil)
		}
	})
}
