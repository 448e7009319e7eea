// Package runtime implements DBPal's runtime phase (paper §4): the
// Parameter Handler that anonymizes constants in the user's NL query
// using a per-column value index with Jaccard string similarity, the
// lemmatization pre-processing shared with the training pipeline, and
// the Post-processor that restores constants, repairs FROM clauses,
// and resolves the @JOIN placeholder along the shortest join path.
package runtime

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

// ValidationError is the typed rejection for malformed questions:
// empty input, invalid UTF-8, embedded control bytes, or a question
// past the token cap. Resubmitting the same malformed input cannot
// succeed, so callers distinguish it with errors.As (the serving
// layer answers it with a 400).
type ValidationError struct {
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string { return "runtime: invalid question: " + e.Reason }

// DefaultMaxQuestionTokens caps question length when
// ParameterHandler.MaxTokens is zero. Anonymization is quadratic-ish
// in span scanning, so an unbounded question is a denial-of-service
// vector; 2048 tokens is far beyond any real NL question.
const DefaultMaxQuestionTokens = 2048

// Binding records one anonymized constant: the placeholder name it was
// mapped to and the database-side value substituted at post-processing.
type Binding struct {
	Placeholder string // e.g. PATIENTS.AGE (no leading '@')
	Value       sqlast.Value
}

// Anonymized is the output of the Parameter Handler.
type Anonymized struct {
	Tokens   []string  // NL tokens with constants replaced
	Bindings []Binding // in order of appearance
}

// ParameterHandler replaces constants in NL queries with placeholders
// using an index from values to columns built over the database
// contents.
type ParameterHandler struct {
	Schema *schema.Schema
	// textIndex maps a lower-cased distinct text value to the columns
	// holding it.
	textValues []indexedValue
	// gramIndex is the inverted index from a packed character bigram to
	// the textValues entries containing it; bestTextMatch scores only
	// candidates sharing at least one bigram with the phrase.
	gramIndex map[uint64][]int32
	// numColumns maps a numeric value to columns holding it.
	numValues map[float64][]sqlast.ColumnRef
	// schemaWords are surface forms of schema elements; spans made of
	// these are never treated as constants.
	schemaWords map[string]bool
	// MinSimilarity is the Jaccard threshold below which a string span
	// is not considered a database constant.
	MinSimilarity float64
	// MaxTokens rejects questions longer than this many tokens with a
	// ValidationError (0 = DefaultMaxQuestionTokens).
	MaxTokens int
}

type indexedValue struct {
	value  string
	ngrams int // distinct character bigrams, for Jaccard scoring
	cols   []sqlast.ColumnRef
}

// NewParameterHandler builds the value index from the database.
func NewParameterHandler(db *engine.Database) *ParameterHandler {
	ph := &ParameterHandler{
		Schema:        db.Schema,
		numValues:     map[float64][]sqlast.ColumnRef{},
		schemaWords:   map[string]bool{},
		MinSimilarity: 0.55,
	}
	textSeen := map[string]int{}
	for _, t := range db.Schema.Tables {
		for _, c := range t.Columns {
			// Key columns are excluded from the value index: users do
			// not reference surrogate ids, and indexing them would make
			// every small integer in a question look like a constant.
			if c.PrimaryKey || strings.EqualFold(c.Name, "id") || strings.HasSuffix(strings.ToLower(c.Name), "_id") {
				continue
			}
			ref := sqlast.ColumnRef{Table: t.Name, Column: c.Name}
			for _, v := range db.DistinctValues(t.Name, c.Name) {
				if v.IsNum {
					ph.numValues[v.Num] = append(ph.numValues[v.Num], ref)
					continue
				}
				key := strings.ToLower(v.Str)
				if i, ok := textSeen[key]; ok {
					ph.textValues[i].cols = append(ph.textValues[i].cols, ref)
					continue
				}
				textSeen[key] = len(ph.textValues)
				ph.textValues = append(ph.textValues, indexedValue{
					value: key,
					cols:  []sqlast.ColumnRef{ref},
				})
			}
		}
		for _, w := range t.SurfaceForms() {
			for _, tok := range tokens.Tokenize(w) {
				ph.schemaWords[lemma.Lemmatize(tok)] = true
			}
		}
		for _, c := range t.Columns {
			for _, w := range c.SurfaceForms() {
				for _, tok := range tokens.Tokenize(w) {
					ph.schemaWords[lemma.Lemmatize(tok)] = true
				}
			}
		}
	}
	ph.gramIndex = map[uint64][]int32{}
	for id := range ph.textValues {
		iv := &ph.textValues[id]
		keys := bigramKeys(iv.value)
		iv.ngrams = len(keys)
		for _, g := range keys {
			ph.gramIndex[g] = append(ph.gramIndex[g], int32(id))
		}
	}
	return ph
}

// Anonymize replaces constants in the NL question with placeholder
// tokens: numbers that match indexed column values become @TABLE.COL,
// and text spans (up to 4 tokens) that are Jaccard-similar to an
// indexed value become @TABLE.COL bound to the most similar database
// value (the paper's "replace constants with their most similar value
// used in the database"). Unmatched numbers stay literal.
//
// Malformed input — empty, not valid UTF-8, embedded control bytes,
// or longer than MaxTokens — is rejected with a *ValidationError; no
// input, however adversarial, may panic.
func (ph *ParameterHandler) Anonymize(question string) (*Anonymized, error) {
	if err := ph.validate(question); err != nil {
		return nil, err
	}
	toks := tokens.Tokenize(question)
	if max := ph.maxTokens(); len(toks) > max {
		return nil, &ValidationError{Reason: fmt.Sprintf("question has %d tokens; the limit is %d", len(toks), max)}
	}
	// Per-token facts used by the span scan below, computed once
	// instead of once per candidate span (this runs on every request;
	// see DESIGN.md, "Inference hot path").
	schemaTok := make([]bool, len(toks))
	numOrPh := make([]bool, len(toks))
	isNum := make([]bool, len(toks))
	nums := make([]float64, len(toks))
	for k, t := range toks {
		schemaTok[k] = ph.schemaWords[lemma.Lemmatize(t)]
		if tokens.IsPlaceholder(t) {
			numOrPh[k] = true
		} else if nums[k], isNum[k] = parseNumber(t); isNum[k] {
			numOrPh[k] = true
		}
	}
	// spanEligible: a span is a constant candidate unless it contains a
	// number/placeholder or consists entirely of schema surface words.
	spanEligible := func(i, n int) bool {
		all := true
		for k := i; k < i+n; k++ {
			if numOrPh[k] {
				return false
			}
			all = all && schemaTok[k]
		}
		return !all
	}

	out := &Anonymized{}
	var spans *spanIndex // built on the first text span scored
	i := 0
	for i < len(toks) {
		tok := toks[i]
		// Pre-anonymized input: pass placeholders through.
		if tokens.IsPlaceholder(tok) {
			out.Tokens = append(out.Tokens, tok)
			i++
			continue
		}
		// Numbers: bind to a column holding the exact value — except
		// in top-k contexts ("top 3", "first 5"), where the number is
		// a result count, not a data constant.
		if isNum[i] {
			n := nums[i]
			topK := i > 0 && isTopKWord(toks[i-1])
			if cols, ok := ph.numValues[n]; ok && len(cols) > 0 && !topK {
				ref := cols[0]
				name := placeholderName(ref)
				out.Tokens = append(out.Tokens, "@"+name)
				out.Bindings = append(out.Bindings, Binding{Placeholder: name, Value: sqlast.NumValue(n)})
				i++
				continue
			}
			out.Tokens = append(out.Tokens, tok)
			i++
			continue
		}
		// Text spans, longest first.
		matched := false
		for n := 4; n >= 1 && !matched; n-- {
			if i+n > len(toks) {
				continue
			}
			if !spanEligible(i, n) {
				continue
			}
			if spans == nil {
				spans = ph.newSpanIndex(toks)
			}
			ref, dbValue, sim := ph.bestTextMatch(spans, i, n)
			if sim < ph.MinSimilarity {
				continue
			}
			name := placeholderName(ref)
			out.Tokens = append(out.Tokens, "@"+name)
			out.Bindings = append(out.Bindings, Binding{Placeholder: name, Value: sqlast.StrValue(dbValue)})
			i += n
			matched = true
		}
		if !matched {
			out.Tokens = append(out.Tokens, tok)
			i++
		}
	}
	return out, nil
}

// parseNumber is strconv.ParseFloat(t, 64) for a token, without the
// error value a word would allocate: every string ParseFloat accepts
// starts with a sign, a digit, a '.', or the "inf"/"nan" spellings.
func parseNumber(t string) (float64, bool) {
	if t == "" {
		return 0, false
	}
	switch c := t[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c|0x20 == 'i', c|0x20 == 'n':
		n, err := strconv.ParseFloat(t, 64)
		return n, err == nil
	}
	return 0, false
}

// maxTokens resolves the question-length cap.
func (ph *ParameterHandler) maxTokens() int {
	if ph.MaxTokens > 0 {
		return ph.MaxTokens
	}
	return DefaultMaxQuestionTokens
}

// validate rejects raw question strings no tokenization should see:
// emptiness, byte sequences that are not UTF-8, and control bytes
// (NUL and friends) that only appear in injection attempts — never in
// typed questions. Tabs and newlines count as ordinary whitespace.
func (ph *ParameterHandler) validate(question string) error {
	if !utf8.ValidString(question) {
		return &ValidationError{Reason: "question is not valid UTF-8"}
	}
	if strings.TrimSpace(question) == "" {
		return &ValidationError{Reason: "empty question"}
	}
	for _, r := range question {
		if unicode.IsControl(r) && r != '\t' && r != '\n' && r != '\r' {
			return &ValidationError{Reason: fmt.Sprintf("question contains control character %q", r)}
		}
	}
	return nil
}

// isTopKWord reports whether a token introduces a result-count number.
func isTopKWord(tok string) bool {
	switch lemma.Lemmatize(strings.ToLower(tok)) {
	case "top", "first", "last", "bottom", "limit":
		return true
	}
	return false
}

// spanIndex is one question's bigram work, done once for all the
// candidate spans bestTextMatch scores. A span's phrase is its tokens
// lower-cased and joined by single spaces, so its bigrams are a
// contiguous run of the question's: the question is lower-cased and
// rune-converted once, every adjacent rune pair gets the id of its
// packed key among the question's distinct keys, and each distinct
// key is looked up in the inverted index once.
type spanIndex struct {
	runes []rune    // the lower-cased tokens joined by ' '
	start []int     // token k's runes are runes[start[k]:start[k+1]-1]
	ids   []int32   // ids[p]: the id of the pair (runes[p], runes[p+1])
	post  [][]int32 // post[id]: the textValues entries with that bigram
	// seen[id] == span marks a bigram already counted for the span
	// being scored; span numbers them from 1.
	seen []int32
	span int32
	// counts[v] is the span's shared bigrams with textValues entry v,
	// and bit v of touched is set when counts[v] > 0; both are all
	// zero between spans.
	counts  []int32
	touched []uint64
}

// newSpanIndex builds the span index of a tokenized question.
func (ph *ParameterHandler) newSpanIndex(toks []string) *spanIndex {
	x := &spanIndex{
		start:   make([]int, len(toks)+1),
		counts:  make([]int32, len(ph.textValues)),
		touched: make([]uint64, (len(ph.textValues)+63)/64),
	}
	for k, t := range toks {
		x.start[k] = len(x.runes)
		// Per-rune unicode.ToLower is strings.ToLower on valid UTF-8,
		// which validate guarantees.
		for _, r := range t {
			x.runes = append(x.runes, unicode.ToLower(r))
		}
		x.runes = append(x.runes, ' ')
	}
	x.start[len(toks)] = len(x.runes)
	if len(x.runes) < 2 {
		return x
	}
	// Ids in order of first appearance, from an open-addressing table
	// at most half full: slot holds 1 + the id of the key hashed there,
	// 0 when empty.
	pairs := len(x.runes) - 1
	shift := 64 - bits.Len(uint(2*pairs-1))
	slot := make([]int32, 1<<(64-shift))
	mask := len(slot) - 1
	distinct := make([]uint64, 0, pairs)
	x.ids = make([]int32, pairs)
	for p := range x.ids {
		g := pairKey(x.runes[p], x.runes[p+1])
		h := int((g * 0x9e3779b97f4a7c15) >> shift)
		for slot[h] != 0 && distinct[slot[h]-1] != g {
			h = (h + 1) & mask
		}
		if slot[h] == 0 {
			distinct = append(distinct, g)
			slot[h] = int32(len(distinct))
		}
		x.ids[p] = slot[h] - 1
	}
	x.seen = make([]int32, len(distinct))
	x.post = make([][]int32, len(distinct))
	for id, g := range distinct {
		x.post[id] = ph.gramIndex[g]
	}
	return x
}

// pairKey packs a character bigram into a uint64 key (hi rune << 32 |
// lo rune).
func pairKey(a, b rune) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// bestTextMatch finds the indexed text value most similar to the
// phrase of the n tokens from token i (character-bigram Jaccard). It
// walks the inverted bigram index, so only candidates sharing at
// least one bigram with the phrase are scored — a candidate sharing
// none has similarity 0 and could never win anyway. The touched
// bitset yields them in ascending index, so candidate order (and
// therefore tie-breaking on equal similarity) matches a linear scan
// of textValues.
func (ph *ParameterHandler) bestTextMatch(x *spanIndex, i, n int) (sqlast.ColumnRef, string, float64) {
	lo, hi := x.start[i], x.start[i+n]-1 // the phrase is runes[lo:hi]
	distinct := 0
	switch {
	case hi-lo == 1:
		// A one-rune phrase's only "bigram" is the bare rune, which
		// cannot collide with a pair key's non-zero high half.
		distinct = 1
		for _, id := range ph.gramIndex[uint64(uint32(x.runes[lo]))] {
			x.counts[id]++
			x.touched[id>>6] |= 1 << (id & 63)
		}
	case hi-lo > 1:
		x.span++
		for _, g := range x.ids[lo : hi-1] {
			if x.seen[g] == x.span {
				continue
			}
			x.seen[g] = x.span
			distinct++
			for _, id := range x.post[g] {
				x.counts[id]++
				x.touched[id>>6] |= 1 << (id & 63)
			}
		}
	}
	// The best is the first candidate whose similarity beats every
	// earlier one's. Rounding is monotone, so a quotient can only beat
	// bestSim when its fraction beats bestInter/bestUnion: the exact
	// integer cross-multiplication skips the division for the rest.
	best, bestInter, bestUnion, bestSim := -1, int64(0), int64(1), 0.0
	for w, word := range x.touched {
		if word == 0 {
			continue
		}
		x.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			inter := x.counts[id]
			x.counts[id] = 0
			union := int64(distinct + ph.textValues[id].ngrams - int(inter))
			if int64(inter)*bestUnion <= bestInter*union {
				continue
			}
			sim := 1.0
			if union != int64(inter) {
				sim = float64(inter) / float64(union)
			}
			if sim > bestSim {
				best, bestInter, bestUnion, bestSim = id, int64(inter), union, sim
			}
		}
	}
	if best < 0 {
		return sqlast.ColumnRef{}, "", 0
	}
	iv := &ph.textValues[best]
	return iv.cols[0], iv.value, bestSim
}

// bigramKeys returns the distinct character bigrams of s packed into
// uint64 keys (hi rune << 32 | lo rune; a single-rune string yields
// the bare rune, which cannot collide with a pair key because pair
// keys always carry a non-zero high half).
func bigramKeys(s string) []uint64 {
	r := []rune(s)
	if len(r) == 1 {
		return []uint64{uint64(uint32(r[0]))}
	}
	out := make([]uint64, 0, len(r))
	for i := 0; i+1 < len(r); i++ {
		out = append(out, pairKey(r[i], r[i+1]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// placeholderName renders TABLE.COL (upper case, no '@').
func placeholderName(ref sqlast.ColumnRef) string {
	return strings.ToUpper(ref.Table) + "." + strings.ToUpper(ref.Column)
}

// KTranslator is the optional contract for models that can propose
// ranked alternative translations. When Translator.Beam is above one,
// each tier decodes that many candidates through it, so finalization —
// and the critic's validity-first rerank — can recover when the top
// candidate is unusable. Both bundled models implement it (beam search
// for the seq2seq, top-k sketches for the sketch model).
type KTranslator interface {
	TranslateK(nl, schemaToks []string, k int) [][]string
}

// Translator is the end-to-end runtime of Figure 1: pre-processing
// (Parameter Handler + Lemmatizer), neural translation, and
// post-processing (constant restoration + SQL repair), backed by the
// execution engine for result delivery.
type Translator struct {
	DB     *engine.Database
	Model  models.Translator
	PH     *ParameterHandler
	schema []string
	// Beam is how many ranked candidates each tier decodes when the
	// model implements KTranslator (<= 1: the single top translation).
	// Finalization answers with the first candidate that parses and
	// post-processes or, with a Critic, reranks the beam validity-first.
	Beam int
	// Deadline bounds each tier's model inference per question
	// (0 = unbounded). A tier still running at expiry is abandoned —
	// it costs at most one leaked goroutine, never a hung question —
	// and the chain falls through to the next tier.
	Deadline time.Duration
	// Fallbacks is the graceful-degradation chain: translators tried
	// in order after the primary Model fails a question (panic,
	// deadline, no output, nothing parsable/executable). The tier that
	// answered is recorded in Trace.Tier. boot serves every tenant
	// with none: a critic-on tenant's second chance is its Beam.
	Fallbacks []models.Translator
	// Hook, when non-nil, gates and observes the stages that can fail
	// for reasons other than the question — the serving layer's
	// circuit breakers plug in here. Allow is consulted before each
	// tier runs (by the tier's Name(); a non-nil error skips the tier
	// without paying its Deadline) and before each critic review (as
	// CriticStage; a non-nil error skips validation). Record is told
	// the outcome of every tier that ran and every candidate the critic
	// reviewed.
	Hook Hook
	// Critic, when non-nil, is the execution-guided
	// validation-and-repair layer: every finalized candidate passes
	// through it before it can become the answer — including a cached
	// decode finalized under new constants, which are validated too.
	// The beam is reranked validity-first: a valid candidate beats a
	// repaired one at any rank, and both beat everything else; when the
	// critic rejects every candidate, finalization fails with a typed
	// *RejectedError.
	Critic *critic.Critic
}

// CriticStage is the name the critic reports under to Translator.Hook.
const CriticStage = "critic"

// Hook gates and observes the degradation chain's tiers and the
// critic. Both methods may be called from concurrent questions and
// must be safe for concurrent use.
type Hook interface {
	// Allow is consulted before the named stage runs; returning a
	// non-nil error skips it, recording the reason in Trace.TierErrors
	// (a tier) or Trace.CriticVerdicts (the critic).
	Allow(name string) error
	// Record reports the outcome of a stage that ran. infra is nil
	// unless the stage itself failed: a tier's model call panicked or
	// overran Translator.Deadline, or the critic's sandbox panicked or
	// timed out. A verdict on the question — no output, unparsable or
	// rejected SQL, a request that ended mid-decode — records nil, so
	// questions the model cannot translate never trip a breaker.
	Record(name string, infra error)
}

// NewTranslator wires a trained model to a database.
func NewTranslator(db *engine.Database, model models.Translator) *Translator {
	return &Translator{
		DB:     db,
		Model:  model,
		PH:     NewParameterHandler(db),
		schema: models.SchemaTokens(db.Schema),
	}
}

// Trace records every stage of one translation (the lifecycle of the
// paper's Figure 1), for demos and debugging.
type Trace struct {
	Question   string
	Anonymized []string  // after the Parameter Handler
	Bindings   []Binding // constants it extracted
	Lemmatized []string  // after the Lemmatizer
	ModelOut   []string  // raw Neural Translator output tokens
	Final      *sqlast.Query
	// Tier is the Name() of the translator that produced Final —
	// the primary model on the happy path, a fallback tier when the
	// degradation chain had to step in. Empty when no tier answered.
	Tier string
	// TierErrors records why each earlier tier failed, in chain order
	// ("name: reason").
	TierErrors []string
	// Cache is the serving layer's result-cache outcome for this
	// question ("hit", "miss", "coalesced"); empty when no cache is in
	// front of the translator.
	Cache string
	// Infra marks that a stage failed for a reason other than the
	// question: a tier panicked or overran Translator.Deadline, a Hook
	// skipped a tier or the critic, or the critic's sandbox panicked
	// or timed out. Such an outcome is no verdict on the question, and
	// the serving layer remembers none of it.
	Infra bool
	// CriticVerdicts records the critic's ruling per candidate in beam
	// order ("valid", "repaired(identifier)", "invalid: ...",
	// "skipped: ..."); empty when no critic is configured.
	CriticVerdicts []string
	// Repaired marks that the answering query needed critic repair.
	Repaired bool
	// CriticNS is the total dry-run sandbox time the critic spent on
	// this request, in nanoseconds.
	CriticNS int64
	// Result is Final's result from the critic's dry-run, set only
	// when that dry-run ran Final to completion inside its row budget
	// (critic.Outcome.Result). Ask and the serving layer answer with it
	// instead of executing Final again; nil means Final still has to
	// be executed.
	Result *engine.Result
}

// String renders the trace as an indented lifecycle report.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "question:   %s\n", t.Question)
	fmt.Fprintf(&b, "anonymized: %s\n", strings.Join(t.Anonymized, " "))
	for _, bd := range t.Bindings {
		fmt.Fprintf(&b, "  constant: @%s = %s\n", bd.Placeholder, bd.Value)
	}
	fmt.Fprintf(&b, "lemmatized: %s\n", strings.Join(t.Lemmatized, " "))
	fmt.Fprintf(&b, "model out:  %s\n", strings.Join(t.ModelOut, " "))
	for _, te := range t.TierErrors {
		fmt.Fprintf(&b, "  tier err: %s\n", te)
	}
	if t.Cache != "" {
		fmt.Fprintf(&b, "cache:      %s\n", t.Cache)
	}
	for _, cv := range t.CriticVerdicts {
		fmt.Fprintf(&b, "  critic:   %s\n", cv)
	}
	if t.Repaired {
		fmt.Fprintf(&b, "repaired:   true\n")
	}
	if t.Tier != "" {
		fmt.Fprintf(&b, "tier:       %s\n", t.Tier)
	}
	if t.Final != nil {
		fmt.Fprintf(&b, "final SQL:  %s", t.Final)
	}
	return b.String()
}

// Translate is the whole pipeline of Figure 1 short of execution: it
// runs Preprocess, then TranslatePrepared's degradation chain, and
// returns the final query with the lifecycle trace. The trace is
// non-nil even on error, holding the stages that completed. ctx
// bounds the whole chain; once it is done the chain stops with ctx's
// error.
func (tr *Translator) Translate(ctx context.Context, question string) (*sqlast.Query, *Trace, error) {
	trace := &Trace{Question: question}
	anon, nl, err := tr.Preprocess(question)
	if err != nil {
		return nil, trace, err
	}
	trace.Anonymized = anon.Tokens
	trace.Bindings = anon.Bindings
	trace.Lemmatized = nl
	q, _, err := tr.TranslatePrepared(ctx, nl, anon.Bindings, trace)
	return q, trace, err
}

// Ask translates and executes under ctx, returning the tabular result.
// When the critic's dry-run already ran the answer to completion, its
// result is the answer's result and nothing executes twice.
func (tr *Translator) Ask(ctx context.Context, question string) (*engine.Result, *sqlast.Query, error) {
	q, trace, err := tr.Translate(ctx, question)
	if err != nil {
		return nil, nil, err
	}
	if trace.Result != nil {
		return trace.Result, q, nil
	}
	res, err := tr.DB.ExecuteContext(ctx, q)
	if err != nil {
		return nil, q, fmt.Errorf("runtime: executing %q: %w", q, err)
	}
	return res, q, nil
}

// Preprocess runs the deterministic pre-model stages alone: the
// Parameter Handler (constant anonymization) and the Lemmatizer. The
// returned lemmatized tokens are exactly what the model decodes —
// and, joined, they are the serving layer's cache key: every constant
// variation of a question shape canonicalizes to the same nl, so one
// cached decode answers them all (the bindings in Anonymized carry
// the per-request constants for post-processing).
func (tr *Translator) Preprocess(question string) (*Anonymized, []string, error) {
	anon, err := tr.PH.Anonymize(question)
	if err != nil {
		return nil, nil, err
	}
	return anon, lemma.LemmatizeAll(anon.Tokens), nil
}

// CacheKey derives the result-cache key for a preprocessed question:
// the owning schema's name joined to the lemmatized anonymized tokens
// under an unprintable separator. The tokens alone are not a safe key
// once a process hosts many tenants — two schemas can anonymize
// lexically identical questions to the same token sequence, and a
// shared key would cross-serve one tenant's decoded candidates to the
// other — so the schema name makes keys disjoint per tenant.
func (tr *Translator) CacheKey(nl []string) string {
	return tr.DB.Schema.Name + "\x1f" + strings.Join(nl, " ")
}

// DecodeResult is the binding-independent product of one translation:
// the ranked candidate token sequences a tier decoded for a prepared
// (anonymized + lemmatized) question, the tier that produced them, and
// why each tier ahead of it failed. Because constants were anonymized
// away before decoding, a DecodeResult is shared safely across every
// request whose question canonicalizes to the same nl — that is what
// the serving layer's result cache stores. Candidates and TierErrors
// must be treated as immutable.
type DecodeResult struct {
	Tier       string
	Candidates [][]string
	// TierErrors is what the decoding request recorded in
	// Trace.TierErrors: the failures ahead of Tier, in chain order.
	TierErrors []string
}

// TranslatePrepared is the post-preprocessing half of a translation:
// given the lemmatized anonymized question and its constant bindings,
// it walks the degradation chain (primary model, then each Fallback)
// until a tier yields a candidate that finalizes, returning the
// winning tier's DecodeResult alongside the query so callers can
// cache it. A tier that panics, exceeds the Deadline, or produces
// nothing usable is recorded in Trace.TierErrors and the next tier is
// tried; it can never take the process down. The returned error is
// the primary tier's failure (the most informative one) when every
// tier fails.
//
// trace may be nil when no lifecycle report is wanted.
func (tr *Translator) TranslatePrepared(ctx context.Context, nl []string, bindings []Binding, trace *Trace) (*sqlast.Query, *DecodeResult, error) {
	if trace == nil {
		trace = &Trace{}
	}
	tierErrs := len(trace.TierErrors)
	var firstErr error
	for _, model := range tr.chain() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return nil, nil, firstErr
		}
		name := model.Name()
		if tr.Hook != nil {
			if herr := tr.Hook.Allow(name); herr != nil {
				trace.Infra = true
				trace.TierErrors = append(trace.TierErrors, name+": skipped: "+herr.Error())
				if firstErr == nil {
					firstErr = fmt.Errorf("runtime: tier %q skipped: %w", name, herr)
				}
				continue
			}
		}
		q, candidates, infra, err := tr.tryTier(ctx, model, nl, bindings, trace)
		if tr.Hook != nil {
			tr.Hook.Record(name, infra)
		}
		if infra != nil {
			trace.Infra = true
		}
		if err == nil {
			trace.Tier = name
			return q, &DecodeResult{Tier: name, Candidates: candidates, TierErrors: slices.Clone(trace.TierErrors[tierErrs:])}, nil
		}
		trace.TierErrors = append(trace.TierErrors, name+": "+err.Error())
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("runtime: no translator tiers configured")
	}
	return nil, nil, firstErr
}

// Finalize is the binding-dependent tail of a translation: it turns a
// DecodeResult — typically one decoded for another request's
// constants and read from the serving layer's result cache — into
// this request's query, without consulting the model or the Hook for
// any tier (tier breakers meter model decodes, and finalizing performs
// none); the critic still reports to the Hook under CriticStage.
// On success trace records dec's tier, its top candidate and the tier
// errors its decode recorded. Errors are finalize's own, so errors.As
// still finds a *RejectedError; the caller decides whether to fall
// back to a fresh decode.
//
// trace may be nil when no lifecycle report is wanted.
func (tr *Translator) Finalize(ctx context.Context, dec *DecodeResult, bindings []Binding, trace *Trace) (*sqlast.Query, error) {
	if trace == nil {
		trace = &Trace{}
	}
	if dec == nil {
		return nil, fmt.Errorf("runtime: no candidates to finalize")
	}
	q, err := tr.finalize(ctx, dec.Candidates, bindings, trace)
	if err != nil {
		return nil, err
	}
	if trace.ModelOut == nil {
		trace.ModelOut = dec.Candidates[0]
	}
	trace.Tier = dec.Tier
	trace.TierErrors = append(trace.TierErrors, dec.TierErrors...)
	return q, nil
}

// chain returns the ordered translator tiers: the primary model, then
// the fallbacks (nil entries skipped defensively).
func (tr *Translator) chain() []models.Translator {
	out := make([]models.Translator, 0, 1+len(tr.Fallbacks))
	if tr.Model != nil {
		out = append(out, tr.Model)
	}
	for _, f := range tr.Fallbacks {
		if f != nil {
			out = append(out, f)
		}
	}
	return out
}

// tryTier runs one translator tier end to end: decode, then
// finalize. A panic anywhere in the tier (a misbehaving plug-in
// model, a pathological candidate) is recovered into an error, and
// model inference is bounded by both tr.Deadline and ctx's own
// deadline — the pluggability contract only holds in production if
// the runtime survives a misbehaving Translator, and a serving layer
// must be able to bound a whole request with one context. The decoded
// candidates are returned even when finalization fails, so the caller
// controls what is worth caching. infra is err when the model call
// itself failed — it panicked, or overran tr.Deadline while ctx was
// still live — and nil otherwise (Hook.Record).
func (tr *Translator) tryTier(ctx context.Context, model models.Translator, nl []string, bindings []Binding, trace *Trace) (q *sqlast.Query, candidates [][]string, infra, err error) {
	defer func() {
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("runtime: tier %q panicked: %v", model.Name(), r)
			infra = err
		}
	}()
	tctx := ctx
	if tr.Deadline > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, tr.Deadline)
		defer cancel()
	}
	// The decode writes a local: a decode abandoned at the deadline
	// finishes after this function has returned, and must not write
	// its results.
	var decoded [][]string
	if derr := par.Await(tctx, func() { decoded = tr.tierCandidates(model, nl) }); derr != nil {
		err = fmt.Errorf("runtime: tier %q exceeded its deadline: %w", model.Name(), derr)
		if ctx.Err() == nil {
			// tr.Deadline ran out, not the request.
			infra = err
		}
		return nil, nil, infra, err
	}
	candidates = decoded
	if len(candidates) == 0 {
		return nil, nil, nil, fmt.Errorf("runtime: model %q produced no output", model.Name())
	}
	if trace.ModelOut == nil {
		trace.ModelOut = candidates[0]
	}
	q, err = tr.finalize(tctx, candidates, bindings, trace)
	return q, candidates, nil, err
}

// RejectedError reports that the critic reviewed every candidate in
// the beam and none came out usable — no candidate was valid as
// decoded and none became valid under repair. Verdicts holds the
// per-candidate rulings in beam order; the serving layer maps this to
// its typed tier-exhaustion response.
type RejectedError struct {
	Verdicts []string
}

// Error implements error.
func (e *RejectedError) Error() string {
	return "runtime: critic rejected every candidate [" + strings.Join(e.Verdicts, "; ") + "]"
}

// finalize walks the ranked candidates and returns the first that
// parses and post-processes against this request's bindings. When a
// Critic is configured (and the Hook, if any, allows it) every candidate
// is instead reviewed by the critic and the beam is reranked
// validity-first: the first valid candidate wins immediately,
// otherwise the first repaired-valid one, otherwise the first
// candidate the sandbox itself failed on (answered unvalidated),
// otherwise the finalization fails with *RejectedError. The critic's
// sandboxed dry-run is the only "must execute" check. It is safe to
// call with candidates decoded for a different request's constants,
// and a panic from a pathological candidate is recovered into an
// error. trace receives the winning query in Final and the critic
// verdicts.
func (tr *Translator) finalize(ctx context.Context, candidates [][]string, bindings []Binding, trace *Trace) (q *sqlast.Query, err error) {
	defer func() {
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("runtime: finalize panicked: %v", r)
		}
	}()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("runtime: no candidates to finalize")
	}
	trace.Result = nil
	crit := tr.Critic
	if crit != nil && tr.Hook != nil {
		if herr := tr.Hook.Allow(CriticStage); herr != nil {
			trace.Infra = true
			trace.CriticVerdicts = append(trace.CriticVerdicts, "skipped: "+herr.Error())
			crit = nil
		}
	}
	if crit != nil {
		return tr.finalizeCritic(ctx, crit, candidates, bindings, trace)
	}
	var firstErr error
	for _, sqlToks := range candidates {
		if pq, perr := tr.parseFinalize(sqlToks, bindings, &firstErr); perr == nil {
			trace.Final = pq
			return pq, nil
		}
	}
	return nil, firstErr
}

// parseFinalize parses and post-processes one candidate, folding its
// failure into firstErr. The returned error only signals "skip this
// candidate".
func (tr *Translator) parseFinalize(sqlToks []string, bindings []Binding, firstErr *error) (*sqlast.Query, error) {
	pq, perr := sqlast.ParseTokens(sqlToks)
	if perr != nil {
		if *firstErr == nil {
			*firstErr = fmt.Errorf("runtime: model output unparsable (%q): %w", strings.Join(sqlToks, " "), perr)
		}
		return nil, perr
	}
	pq, perr = PostProcess(pq, tr.DB.Schema, bindings)
	if perr != nil {
		if *firstErr == nil {
			*firstErr = perr
		}
		return nil, perr
	}
	return pq, nil
}

// finalizeCritic is the critic-guarded finalization: every candidate
// is reviewed (static checks, repair, sandboxed dry-run) and the beam
// reranked validity-first. A valid candidate short-circuits the walk;
// a repaired one is remembered as the fallback winner so a
// repaired-valid candidate beats an invalid top-1 but never a valid
// lower-ranked one. A candidate whose sandbox run itself failed
// (engine panic or deadline — not a verdict on the candidate) is kept
// as a last-resort unvalidated answer below both, so an engine
// meltdown degrades service instead of rejecting requests.
func (tr *Translator) finalizeCritic(ctx context.Context, crit *critic.Critic, candidates [][]string, bindings []Binding, trace *Trace) (*sqlast.Query, error) {
	var repairedQ, degradedQ *sqlast.Query
	var repairedRes *engine.Result
	var firstErr error
	verdicts := make([]string, 0, len(candidates))
	for _, sqlToks := range candidates {
		pq, perr := tr.parseFinalize(sqlToks, bindings, &firstErr)
		if perr != nil {
			verdicts = append(verdicts, "unusable: "+perr.Error())
			continue
		}
		out, outcome := crit.Review(ctx, pq)
		var infra error
		if outcome.Err != nil && outcome.Err.Infra() {
			infra = outcome.Err
			trace.Infra = true
		}
		if tr.Hook != nil {
			tr.Hook.Record(CriticStage, infra)
		}
		trace.CriticNS += outcome.DryRunNS
		verdicts = append(verdicts, outcome.String())
		switch outcome.Verdict {
		case critic.VerdictValid:
			trace.CriticVerdicts = append(trace.CriticVerdicts, verdicts...)
			trace.Final, trace.Result = out, outcome.Result
			return out, nil
		case critic.VerdictRepaired:
			if repairedQ == nil {
				repairedQ, repairedRes = out, outcome.Result
			}
		case critic.VerdictError:
			// The sandbox failed, not the candidate: it already passed
			// the static checks, and the Hook.Record above is what
			// trips the breaker. Answer with it unvalidated rather
			// than failing the request for the engine's meltdown.
			if degradedQ == nil {
				degradedQ = pq
			}
		}
	}
	trace.CriticVerdicts = append(trace.CriticVerdicts, verdicts...)
	if repairedQ != nil {
		trace.Final, trace.Result = repairedQ, repairedRes
		trace.Repaired = true
		return repairedQ, nil
	}
	if degradedQ != nil {
		trace.Final = degradedQ
		return degradedQ, nil
	}
	return nil, &RejectedError{Verdicts: verdicts}
}

// tierCandidates returns the ranked outputs of one tier: the single
// top translation, or up to Beam many when the tier supports
// alternatives. tryTier bounds the whole call with par.Await under the
// tier deadline, since neither model call takes a context.
func (tr *Translator) tierCandidates(model models.Translator, nl []string) [][]string {
	if tr.Beam > 1 {
		if kt, ok := model.(KTranslator); ok {
			return kt.TranslateK(nl, tr.schema, tr.Beam)
		}
	}
	out := model.Translate(nl, tr.schema)
	if len(out) == 0 {
		return nil
	}
	return [][]string{out}
}
