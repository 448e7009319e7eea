// Package augment implements DBPal's data-augmentation step, which
// expands the instantiated training set with linguistic variations:
//
//   - Automatic paraphrasing using the PPDB stand-in: random
//     subclauses of up to sizePara tokens are replaced by up to
//     numPara paraphrases each (paper §3.2.1). Higher settings pull in
//     lower-quality paraphrases, trading training-set size against
//     noise.
//   - Missing information: duplicates with randomly dropped words
//     (numMissing duplicates per query, applied with probability
//     randDropP), making the model robust to implicit attribute
//     references (paper §3.2.2).
//   - Domain-aware comparatives: generic comparison phrases become
//     domain-specific ones ("greater than" -> "older than" on an age
//     column, paper §3.2.3).
package augment

import (
	"math/rand"
	"strings"

	"repro/internal/generator"
	"repro/internal/lexicon"
	"repro/internal/postag"
	"repro/internal/ppdb"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// Params are the augmentation knobs from the paper's Table 1.
type Params struct {
	// SizePara is the maximum token length of subclauses replaced by a
	// paraphrase (1 = unigrams only, 2 = unigrams and bigrams, ...).
	SizePara int
	// NumPara is the maximum number of paraphrases generated per
	// subclause occurrence.
	NumPara int
	// NumMissing is the maximum number of word-dropped duplicates
	// produced for one input NL query.
	NumMissing int
	// RandDropP is the probability that word dropping is applied to a
	// given NL query at all.
	RandDropP float64
	// PosGuidedDrop restricts word dropout to droppable part-of-speech
	// classes (function words, auxiliaries) instead of uniform random
	// words - the refinement the paper sketches as future work
	// (section 3.2.3). Off by default to match the published pipeline.
	PosGuidedDrop bool
}

// DefaultParams are the shipped defaults (pre-tuning).
func DefaultParams() Params {
	return Params{
		SizePara:   2,
		NumPara:    3,
		NumMissing: 2,
		RandDropP:  0.35,
	}
}

// Provenance values stamped on augmenter-created variants (the
// Pair.Stage / Pair.Origin fields); pass-through originals keep the
// generator's provenance.
const (
	StageAugment      = "augment"
	OriginParaphrase  = "paraphrase"
	OriginDropout     = "dropout"
	OriginComparative = "comparative"
)

// Augmenter expands training pairs for one schema. It is a stateful
// stream transform: one RNG and one dedup map span the augmenter's
// lifetime, so feeding pairs one at a time through Step produces
// exactly the corpus the batch Augment call produces. An Augmenter is
// single-use — build a fresh one per pipeline run.
type Augmenter struct {
	Schema *schema.Schema
	Params Params
	rng    *rand.Rand
	seen   map[string]bool
	counts map[string]int64
}

// New returns an augmenter.
func New(s *schema.Schema, p Params, seed int64) *Augmenter {
	return &Augmenter{
		Schema: s, Params: p,
		rng:    rand.New(rand.NewSource(seed)),
		seen:   map[string]bool{},
		counts: map[string]int64{},
	}
}

// Step augments one pair: it emits the pair itself followed by its
// variants (comparatives, paraphrases, word drops — in that order, the
// order the RNG stream is consumed in), deduplicated against
// everything the augmenter has emitted so far.
func (a *Augmenter) Step(p generator.Pair, emit func(generator.Pair)) {
	a.add(p, emit, "")
	for _, v := range a.comparatives(p) {
		a.add(v, emit, OriginComparative)
	}
	for _, v := range a.paraphrases(p) {
		a.add(v, emit, OriginParaphrase)
	}
	for _, v := range a.dropWords(p) {
		a.add(v, emit, OriginDropout)
	}
}

// add emits p unless its (NL, SQL) text was already emitted, counting
// per-origin emissions and dedup hits.
func (a *Augmenter) add(p generator.Pair, emit func(generator.Pair), origin string) {
	if a.seen[p.Key()] {
		a.counts["dedup_hits"]++
		return
	}
	a.seen[p.Key()] = true
	if origin != "" {
		a.counts[origin]++
	}
	emit(p)
}

// Counters reports per-origin variant counts and internal dedup hits
// (the pipeline surfaces them in the augment stage's Stats snapshot).
func (a *Augmenter) Counters() map[string]int64 {
	out := make(map[string]int64, len(a.counts))
	for k, v := range a.counts {
		out[k] = v
	}
	return out
}

// Augment returns the input pairs followed by all generated duplicate
// variations, deduplicated — the batch form of Step.
//
//lint:allow deadcode reference implementation: core's stage-equivalence golden compares the streaming stage against it
func (a *Augmenter) Augment(pairs []generator.Pair) []generator.Pair {
	out := make([]generator.Pair, 0, len(pairs)*2)
	for _, p := range pairs {
		a.Step(p, func(q generator.Pair) { out = append(out, q) })
	}
	return out
}

// paraphrases implements the automatic-paraphrasing step: each
// eligible subclause (up to SizePara tokens) that has PPDB entries
// yields up to NumPara duplicated pairs with the subclause replaced.
// To keep the expansion bounded the augmenter picks, per pair, a
// random subset of the replaceable subclauses rather than all of them.
func (a *Augmenter) paraphrases(p generator.Pair) []generator.Pair {
	if a.Params.SizePara < 1 || a.Params.NumPara < 1 {
		return nil
	}
	toks := strings.Fields(p.NL)
	type site struct {
		start, n int
		cands    []string
	}
	var sites []site
	for n := 1; n <= a.Params.SizePara; n++ {
		for i := 0; i+n <= len(toks); i++ {
			if containsPlaceholder(toks[i : i+n]) {
				continue
			}
			phrase := strings.Join(toks[i:i+n], " ")
			cands := ppdb.Paraphrases(phrase, a.Params.NumPara, 0)
			if len(cands) > 0 {
				sites = append(sites, site{start: i, n: n, cands: cands})
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}
	// Random subset of sites: about half, at least one.
	a.rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	keep := (len(sites) + 1) / 2
	var out []generator.Pair
	for _, s := range sites[:keep] {
		for _, cand := range s.cands {
			var nt []string
			nt = append(nt, toks[:s.start]...)
			nt = append(nt, strings.Fields(cand)...)
			nt = append(nt, toks[s.start+s.n:]...)
			out = append(out, generator.Pair{
				NL: strings.Join(nt, " "), SQL: p.SQL,
				TemplateID: p.TemplateID, Class: p.Class,
				Stage: StageAugment, Origin: OriginParaphrase,
			})
		}
	}
	return out
}

// dropWords implements the missing-information step: with probability
// RandDropP, up to NumMissing duplicates are produced, each with one
// or two random droppable words removed.
func (a *Augmenter) dropWords(p generator.Pair) []generator.Pair {
	if a.Params.NumMissing < 1 || a.rng.Float64() >= a.Params.RandDropP {
		return nil
	}
	toks := strings.Fields(p.NL)
	var droppable []int
	for i, t := range toks {
		if tokens.IsPlaceholder(t) {
			continue
		}
		if a.Params.PosGuidedDrop && !postag.Droppable(t, postag.TagWord(t)) {
			continue
		}
		droppable = append(droppable, i)
	}
	if len(droppable) < 3 {
		return nil
	}
	var out []generator.Pair
	for d := 0; d < a.Params.NumMissing; d++ {
		nDrop := 1
		if len(droppable) > 5 && a.rng.Float64() < 0.4 {
			nDrop = 2
		}
		drop := map[int]bool{}
		for len(drop) < nDrop {
			drop[droppable[a.rng.Intn(len(droppable))]] = true
		}
		var nt []string
		for i, t := range toks {
			if !drop[i] {
				nt = append(nt, t)
			}
		}
		out = append(out, generator.Pair{
			NL: strings.Join(nt, " "), SQL: p.SQL,
			TemplateID: p.TemplateID, Class: p.Class,
			Stage: StageAugment, Origin: OriginDropout,
		})
	}
	return out
}

// genericGreater and genericLess are the generic comparison phrasings
// that domain-aware comparatives can replace, longest first so that
// multi-word phrases match before their prefixes.
var genericGreater = []string{"greater than", "higher than", "more than", "bigger than", "above", "over", "exceeding"}
var genericLess = []string{"smaller than", "less than", "lower than", "fewer than", "below", "under"}

// comparatives implements the "other augmentations" step: when the SQL
// side compares a column annotated with a domain, generic comparison
// phrases in the NL are replaced by the domain's comparative ("older
// than" for age).
func (a *Augmenter) comparatives(p generator.Pair) []generator.Pair {
	q, err := sqlast.Parse(p.SQL)
	if err != nil {
		return nil
	}
	var out []generator.Pair
	for _, c := range comparisonsWithDomain(q, a.Schema) {
		comp, ok := lexicon.ComparativeFor(c.domain)
		if !ok {
			continue
		}
		var generics []string
		var repls []string
		switch c.op {
		case sqlast.OpGt, sqlast.OpGe:
			generics, repls = genericGreater, comp.Greater
		case sqlast.OpLt, sqlast.OpLe:
			generics, repls = genericLess, comp.Less
		default:
			continue
		}
		if len(repls) == 0 {
			continue
		}
		for _, gph := range generics {
			if !strings.Contains(" "+p.NL+" ", " "+gph+" ") {
				continue
			}
			repl := repls[a.rng.Intn(len(repls))]
			nl := strings.Replace(" "+p.NL+" ", " "+gph+" ", " "+repl+" ", 1)
			out = append(out, generator.Pair{
				NL: strings.TrimSpace(nl), SQL: p.SQL,
				TemplateID: p.TemplateID, Class: p.Class,
				Stage: StageAugment, Origin: OriginComparative,
			})
			break
		}
	}
	return out
}

type domainCmp struct {
	op     sqlast.CmpOp
	domain schema.Domain
}

// comparisonsWithDomain finds comparisons over domain-annotated
// columns anywhere in the query.
func comparisonsWithDomain(q *sqlast.Query, s *schema.Schema) []domainCmp {
	var out []domainCmp
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		for _, e := range sqlast.Conjuncts(sub.Where) {
			cmp, ok := e.(sqlast.Comparison)
			if !ok {
				continue
			}
			col := resolveColumn(cmp.Left, sub, s)
			if col == nil || col.Domain == schema.DomainNone {
				continue
			}
			out = append(out, domainCmp{op: cmp.Op, domain: col.Domain})
		}
	})
	return out
}

// resolveColumn finds the schema column for a reference given the
// query's FROM tables.
func resolveColumn(ref sqlast.ColumnRef, q *sqlast.Query, s *schema.Schema) *schema.Column {
	if ref.Table != "" {
		return s.Column(ref.Table, ref.Column)
	}
	for _, tn := range q.From.Tables {
		if c := s.Column(tn, ref.Column); c != nil {
			return c
		}
	}
	// @JOIN FROM: search all tables.
	if q.From.JoinPlaceholder {
		for _, t := range s.Tables {
			if c := t.Column(ref.Column); c != nil {
				return c
			}
		}
	}
	return nil
}

func containsPlaceholder(toks []string) bool {
	for _, t := range toks {
		if tokens.IsPlaceholder(t) {
			return true
		}
	}
	return false
}
