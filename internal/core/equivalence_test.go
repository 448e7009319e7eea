package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/augment"
	"repro/internal/generator"
	"repro/internal/pipeline"
	"repro/internal/schema"
)

// monolithRun is the pre-stage-refactor pipeline, frozen verbatim: the
// generator's batch output, fed through one batch augmenter, then
// lemmatized in place. The golden tests below pin the stage graph to
// this trajectory.
func monolithRun(s *schema.Schema, p Params, seed int64) []Pair {
	gen := generator.New(s, p.Instantiation, seed)
	pairs := gen.Generate()
	aug := augment.New(s, p.Augmentation, seed+1)
	pairs = aug.Augment(pairs)
	for i := range pairs {
		pairs[i].NL = LemmatizeNL(pairs[i].NL)
	}
	return pairs
}

// stableDedup drops exact (NL, SQL) duplicates, first occurrence wins
// — the corpus the monolith *should* have produced (lemmatization can
// collapse distinct surface forms into identical pairs).
func stableDedup(pairs []Pair) []Pair {
	seen := map[string]bool{}
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if seen[p.Key()] {
			continue
		}
		seen[p.Key()] = true
		out = append(out, p)
	}
	return out
}

// tsv renders the text content of a corpus (not the provenance fields,
// which the monolith-era output did not carry).
func tsv(pairs []Pair) string {
	var b strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", p.NL, p.SQL, p.TemplateID, p.Class)
	}
	return b.String()
}

// TestStageEquivalenceGolden is the refactor's acceptance gate: the
// stage graph generate → augment → lemmatize reproduces the frozen
// monolithic pipeline byte-for-byte, and the default composition (which appends the dedup stage — the one
// deliberate behavior fix of the refactor) equals a stable
// first-occurrence dedup of the monolith's output.
func TestStageEquivalenceGolden(t *testing.T) {
	s := miniSchema()
	for _, seed := range []int64{3, 11} {
		want := monolithRun(s, DefaultParams(), seed)
		wantTSV := tsv(want)
		wantDeduped := tsv(stableDedup(want))
		p := New(s, DefaultParams(), seed)
		chain := p.Graph(p.GenerateStage(), p.AugmentStage(), LemmaStage()).Collect()
		if got := tsv(chain); got != wantTSV {
			t.Fatalf("seed=%d: stage chain diverges from the monolith (%d vs %d pairs)",
				seed, len(chain), len(want))
		}
		run := p.Run()
		if got := tsv(run); got != wantDeduped {
			t.Fatalf("seed=%d: default Run diverges from deduped monolith (%d vs %d pairs)",
				seed, len(run), len(stableDedup(want)))
		}
	}
}

// TestDedupStageRegression pins the dedup fix: the default corpus
// contains no exact (NL, SQL) duplicates, and the drop count surfaces
// in the stage's Stats snapshot and accounts exactly for the size
// difference against the dedup-free chain.
func TestDedupStageRegression(t *testing.T) {
	s := miniSchema()
	p := New(s, DefaultParams(), 3)
	g := p.Graph()
	run := g.Collect()
	seen := map[string]bool{}
	for _, pr := range run {
		if seen[pr.Key()] {
			t.Fatalf("duplicate pair survived dedup: %q / %q", pr.NL, pr.SQL)
		}
		seen[pr.Key()] = true
	}
	stats := g.Stats()
	last := stats[len(stats)-1]
	if last.Stage != "dedup" {
		t.Fatalf("last stage = %q, want dedup", last.Stage)
	}
	hits, ok := last.Extra["dedup_hits"]
	if !ok {
		t.Fatal("dedup stage reported no dedup_hits counter")
	}
	p2 := New(s, DefaultParams(), 3)
	chain := p2.Graph(p2.GenerateStage(), p2.AugmentStage(), LemmaStage()).Collect()
	if int64(len(chain))-int64(len(run)) != hits {
		t.Fatalf("dedup_hits = %d but chain-run size delta = %d", hits, len(chain)-len(run))
	}
}

// TestPipelineProvenance asserts every pair carries its originating
// stage and variant origin.
func TestPipelineProvenance(t *testing.T) {
	pairs := New(miniSchema(), DefaultParams(), 5).Run()
	counts := map[string]int{}
	for _, p := range pairs {
		switch {
		case p.Stage == generator.StageGenerate && p.Origin == generator.OriginTemplate:
		case p.Stage == augment.StageAugment && (p.Origin == augment.OriginParaphrase ||
			p.Origin == augment.OriginDropout || p.Origin == augment.OriginComparative):
		default:
			t.Fatalf("pair with invalid provenance %q/%q: %q", p.Stage, p.Origin, p.NL)
		}
		counts[p.Origin]++
	}
	for _, origin := range []string{generator.OriginTemplate, augment.OriginParaphrase, augment.OriginDropout} {
		if counts[origin] == 0 {
			t.Fatalf("no pairs with origin %q (distribution: %v)", origin, counts)
		}
	}
}

// TestGenCacheReplay asserts memoized generation is byte-identical to
// live generation and that hit/miss accounting works, including across
// pipelines that differ only in augmentation parameters (the hyperopt
// reuse case).
func TestGenCacheReplay(t *testing.T) {
	s := miniSchema()
	cache := NewGenCache(0)

	fresh := New(s, DefaultParams(), 9)
	want := fresh.Run()

	cold := New(s, DefaultParams(), 9)
	cold.Cache = cache
	coldGraph := cold.Graph()
	got := coldGraph.Collect()

	altered := DefaultParams()
	altered.Augmentation.RandDropP = 0 // different downstream, same generation key
	warm := New(s, altered, 9)
	warm.Cache = cache
	warmGraph := warm.Graph()
	warmGraph.Collect()

	warmSame := New(s, DefaultParams(), 9)
	warmSame.Cache = cache
	sameGraph := warmSame.Graph()
	replayed := sameGraph.Collect()

	if len(got) != len(want) {
		t.Fatalf("cached cold run: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cached cold run diverges at pair %d", i)
		}
	}
	for i := range replayed {
		if replayed[i] != want[i] {
			t.Fatalf("cache replay diverges at pair %d", i)
		}
	}
	// One miss records the entry; both later runs replay it.
	for _, c := range []struct {
		name string
		g    *pipeline.Graph
		hit  int64
	}{{"cold", coldGraph, 0}, {"warm", warmGraph, 1}, {"warm-same", sameGraph, 1}} {
		if got := c.g.Stats()[0].Extra["cache_hit"]; got != c.hit {
			t.Fatalf("%s run: generate stage cache_hit = %d, want %d", c.name, got, c.hit)
		}
	}
	if len(cache.entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(cache.entries))
	}
}
