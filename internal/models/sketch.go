package models

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/lemma"
	"repro/internal/neural"
	"repro/internal/tokens"
)

// SketchConfig sizes the sketch-guided translator.
type SketchConfig struct {
	EmbDim    int
	HidDim    int
	LR        float64
	Epochs    int
	SampleCap int
	MaxSlots  int // slot positions with dedicated scorers
	GradClip  float64
	MinCount  int
	Seed      int64
}

// DefaultSketchConfig returns the standard small configuration.
func DefaultSketchConfig() SketchConfig {
	return SketchConfig{
		EmbDim:    40,
		HidDim:    80,
		LR:        0.004,
		Epochs:    6,
		SampleCap: 4000,
		MaxSlots:  10,
		GradClip:  5,
		MinCount:  1,
		Seed:      1,
	}
}

// slotKind types the schema elements a sketch slot can hold.
type slotKind int

const (
	kindTable slotKind = iota
	kindColumn
	kindQualified
	kindPlaceholder
	numKinds
)

// sketch is one SQL skeleton: tokens with schema-dependent tokens
// replaced by slot markers, plus the slot kinds in order.
type sketch struct {
	tokens  []string // slot positions hold the marker
	kinds   []slotKind
	clauses []clause // SQL clause each slot sits in
	key     string
}

// clause identifies the SQL clause a slot belongs to. Slot scorers are
// indexed by (clause, kind) — a role, not a position — so "the column
// being projected" and "the column being filtered" have distinct
// scorers shared across all sketches.
type clause int

const (
	clauseSelect clause = iota
	clauseFrom
	clauseWhere
	clauseGroup
	clauseHaving
	clauseOrder
	numClauses
)

// clauseOf tracks the current clause while scanning sketch tokens.
func clauseOf(cur clause, tok string) clause {
	switch strings.ToUpper(tok) {
	case "SELECT":
		return clauseSelect
	case "FROM":
		return clauseFrom
	case "WHERE":
		return clauseWhere
	case "GROUP":
		return clauseGroup
	case "HAVING":
		return clauseHaving
	case "ORDER":
		return clauseOrder
	}
	return cur
}

// scorerIndex flattens (clause, kind, position-within-clause) into a
// slot-scorer index. Position is capped at 1: the first slot of a kind
// in a clause gets its own scorer, later ones share a second (so "the
// first projected column" and "the second projected column", or an
// outer and an inner WHERE column, are scored by different roles).
func scorerIndex(c clause, k slotKind, pos int) int {
	if pos > 1 {
		pos = 1
	}
	return (int(c)*int(numKinds)+int(k))*2 + pos
}

// numScorers is the total number of (clause, kind, position) scorers.
const numScorers = int(numClauses) * int(numKinds) * 2

const slotMarker = "\x00slot"

// numSlotFeatures is the length of the hand-crafted schema-linking
// feature vector attached to every (slot, candidate) score:
//
//	0: lexical overlap — fraction of the candidate's lemmatized
//	   subtokens found among the NL tokens;
//	1: match position — how early the candidate is mentioned in the
//	   question (1 at the start, 0 when unmentioned), which lets the
//	   otherwise order-blind slot scorer tell projection columns
//	   ("show the population of ...") from filter columns ("... whose
//	   name is X");
//	2: placeholder overlap — overlap with the anonymized-constant
//	   tokens (@CITIES.NAME names its column), the strongest cue for
//	   filter-column slots.
const numSlotFeatures = 3

// Sketch is a syntax-guided translator in the spirit of SyntaxSQLNet:
// instead of decoding SQL token by token, it (1) encodes the question
// with a GRU, (2) classifies it into one of the SQL sketches observed
// in training, and (3) fills each sketch slot by scoring the schema
// candidates of the slot's kind with a bilinear match against the
// encoding plus learned schema-linking features. The modular
// decomposition mirrors SyntaxSQLNet's per-clause modules at a scale
// trainable on a CPU, and the linking features let it operate on
// schemas never seen in training.
type Sketch struct {
	cfg      SketchConfig
	vocab    *tokens.Vocab
	sketches []sketch
	byKey    map[string]int
	ps       *neural.ParamSet
	emb      *neural.Embedding
	enc      *neural.GRU
	clsW     *neural.Linear // sketch logits from the final GRU state
	slotW    []*neural.Mat  // per-slot bilinear (EmbDim x HidDim)
	slotF    *neural.Mat    // per-slot feature weights (MaxSlots x numSlotFeatures)
	rng      *rand.Rand
	sets     *schemaSets // memoized per schema, shared by concurrent decodes
	// plan is the encoder's decode plan, derived from emb and enc. Only
	// TrainContext and LoadSketch write weights; TrainContext drops the
	// plan when it starts and both build it once the weights are final,
	// so a non-nil plan always matches the weights.
	plan *neural.GRUPlan
	// tw is the training scratch, built on first use after buildParams
	// and dropped when TrainContext returns.
	tw *sketchWork
}

// NewSketch returns an untrained sketch model.
func NewSketch(cfg SketchConfig) *Sketch {
	return &Sketch{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), byKey: map[string]int{}, sets: &schemaSets{}}
}

// Name implements Translator.
func (m *Sketch) Name() string { return "sketch" }

// NumSketches returns the size of the learned sketch inventory.
func (m *Sketch) NumSketches() int { return len(m.sketches) }

// schemaSet indexes the schema tokens and derives each bare token's
// kind: a bare token is a table iff some qualified token has it as the
// table part, a column iff some qualified token has it as the column
// part. Each candidate list carries its tokens' candSubtokens, so a
// slot scores its candidates without re-lemmatizing them.
type schemaSet struct {
	all    candList // every schema token: fillSketch's fallback
	kind   map[string]slotKind
	byKind [numKinds]candList
}

// candList is a list of slot candidates with each one's candSubtokens.
type candList struct {
	toks []string
	subs [][]string
}

// add appends a candidate.
func (l *candList) add(t string) {
	l.toks = append(l.toks, t)
	l.subs = append(l.subs, candSubtokens(t))
}

func newSchemaSet(schemaToks []string) *schemaSet {
	s := &schemaSet{kind: map[string]slotKind{}}
	for _, t := range schemaToks {
		s.all.add(t)
	}
	tableNames := map[string]bool{}
	columnNames := map[string]bool{}
	for _, t := range schemaToks {
		if strings.HasPrefix(t, "@") {
			continue
		}
		if i := strings.IndexByte(t, '.'); i > 0 {
			tableNames[t[:i]] = true
			columnNames[t[i+1:]] = true
		}
	}
	for _, t := range schemaToks {
		var k slotKind
		switch {
		case strings.EqualFold(t, "@JOIN"):
			// @JOIN is structural (the unresolved-join marker), not a
			// schema element: it stays literal in sketches.
			continue
		case strings.HasPrefix(t, "@"):
			k = kindPlaceholder
		case strings.Contains(t, "."):
			k = kindQualified
		case tableNames[t]:
			k = kindTable
		case columnNames[t]:
			k = kindColumn
		default:
			k = kindColumn
		}
		if _, dup := s.kind[t]; dup {
			continue
		}
		s.kind[t] = k
		s.byKind[k].add(t)
	}
	return s
}

// schemaSets memoizes newSchemaSet by schema token list: every
// training step and every decode of a schema shares one schemaSet,
// which is read-only once built. Safe for concurrent use.
type schemaSets struct {
	mu   sync.Mutex
	sets map[uint64][]*schemaSet // by tokensHash, then slices.Equal
}

// get returns the schemaSet of schemaToks, building it on first use.
func (c *schemaSets) get(schemaToks []string) *schemaSet {
	h := tokensHash(schemaToks)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sets[h] {
		if slices.Equal(s.all.toks, schemaToks) {
			return s
		}
	}
	s := newSchemaSet(slices.Clone(schemaToks))
	if c.sets == nil {
		c.sets = map[uint64][]*schemaSet{}
	}
	c.sets[h] = append(c.sets[h], s)
	return s
}

// tokensHash is FNV-1a over the tokens, each followed by a 0 byte.
func tokensHash(toks []string) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range toks {
		for i := 0; i < len(t); i++ {
			h = (h ^ uint64(t[i])) * 1099511628211
		}
		h *= 1099511628211 // the separator byte, 0
	}
	return h
}

// sketchOf extracts the sketch of a SQL token sequence given the
// example's schema, returning the gold slot fillers in order.
func sketchOf(sql []string, ss *schemaSet) (sketch, []string) {
	var sk sketch
	var gold []string
	cur := clauseSelect
	for _, t := range sql {
		if k, ok := ss.kind[t]; ok {
			sk.tokens = append(sk.tokens, slotMarker)
			sk.kinds = append(sk.kinds, k)
			sk.clauses = append(sk.clauses, cur)
			gold = append(gold, t)
		} else {
			cur = clauseOf(cur, t)
			sk.tokens = append(sk.tokens, t)
		}
	}
	var b strings.Builder
	si := 0
	for _, t := range sk.tokens {
		if t == slotMarker {
			b.WriteString("⟨")
			b.WriteString(kindName(sk.kinds[si]))
			b.WriteString("⟩")
			si++
		} else {
			b.WriteString(t)
		}
		b.WriteByte(' ')
	}
	sk.key = b.String()
	return sk, gold
}

func kindName(k slotKind) string {
	switch k {
	case kindTable:
		return "T"
	case kindColumn:
		return "C"
	case kindQualified:
		return "Q"
	default:
		return "P"
	}
}

// Train implements Translator.
func (m *Sketch) Train(examples []Example) {
	// Background is never done and no checkpointing is configured, so
	// the error is always nil.
	_ = m.TrainContext(context.Background(), examples, TrainOptions{})
}

// TrainContext is Train with cooperative cancellation and optional
// checkpoint/resume; the contract matches Seq2Seq.TrainContext.
func (m *Sketch) TrainContext(ctx context.Context, examples []Example, opts TrainOptions) error {
	if len(examples) == 0 {
		return nil
	}
	m.plan = nil
	defer m.buildPlan()
	m.vocab = BuildVocabs(examples, m.cfg.MinCount)

	defer func() { m.tw = nil }()
	inv := m.inventory(examples)

	// buildParams draws the same RNG sequence on fresh and resumed
	// runs, putting the generator back in position without serializing
	// its internals.
	m.buildParams()
	opt := neural.NewAdam(m.ps, m.cfg.LR)

	sched := &trainSchedule{
		epochs:    m.cfg.Epochs,
		sampleCap: m.cfg.SampleCap,
		gradClip:  m.cfg.GradClip,
		rng:       m.rng,
		main:      m.ps,
		opt:       opt,
		accum:     func(exIdx int) { m.step(examples[exIdx], inv[exIdx]) },
	}

	if r := opts.Resume; r != nil {
		if err := m.restoreCheckpoint(r); err != nil {
			return err
		}
		if err := opt.Restore(r.Adam); err != nil {
			return err
		}
	}
	scheduleCheckpointing(sched, opts, func(epoch, step int) (*Checkpoint, error) {
		return snapshot(m.Name(), epoch, step, m.SaveFull, opt)
	})
	return sched.run(ctx, len(examples))
}

// exSketch is one training example's place in the sketch inventory:
// its sketch's index in m.sketches and its gold slot fillers in order.
type exSketch struct {
	id   int
	gold []string
}

// inventory builds the sketch inventory from the examples and returns
// each example's entry. It is deterministic in the example list, so a
// resumed run reconstructs the same inventory. Examples that share
// their SQL and schema token slices, as PairExamples' do, share one
// sketchOf result.
func (m *Sketch) inventory(examples []Example) []exSketch {
	// A slice is identified by its first element's address and length.
	type sliceID struct {
		first *string
		n     int
	}
	id := func(s []string) sliceID {
		if len(s) == 0 {
			return sliceID{}
		}
		return sliceID{&s[0], len(s)}
	}
	seen := map[[2]sliceID]exSketch{}
	m.sketches = nil
	m.byKey = map[string]int{}
	inv := make([]exSketch, len(examples))
	for i, ex := range examples {
		key := [2]sliceID{id(ex.SQL), id(ex.Schema)}
		e, ok := seen[key]
		if !ok {
			sk, gold := sketchOf(ex.SQL, m.sets.get(ex.Schema))
			skID, known := m.byKey[sk.key]
			if !known {
				skID = len(m.sketches)
				m.byKey[sk.key] = skID
				m.sketches = append(m.sketches, sk)
			}
			e = exSketch{id: skID, gold: gold}
			seen[key] = e
		}
		inv[i] = e
	}
	return inv
}

// restoreCheckpoint copies a checkpoint's weights into the
// freshly-built parameter set, validating that the checkpoint matches
// this model, vocabulary, and sketch inventory.
func (m *Sketch) restoreCheckpoint(ck *Checkpoint) error {
	if err := resumeKindErr(ck, m.Name()); err != nil {
		return err
	}
	var in savedSketch
	if err := gob.NewDecoder(bytes.NewReader(ck.Model)).Decode(&in); err != nil {
		return fmt.Errorf("models: resume: decode checkpoint model: %w", err)
	}
	if len(in.Vocab) != m.vocab.Size() || len(in.Sketches) != len(m.sketches) {
		return fmt.Errorf("models: resume: vocabulary/inventory (%d/%d) does not match checkpoint's (%d/%d) (resume requires the original examples and config)",
			m.vocab.Size(), len(m.sketches), len(in.Vocab), len(in.Sketches))
	}
	return restoreParams(m.ps.Mats(), m.ps.Names(), in.Mats)
}

// buildParams allocates the model parameters for the current
// vocabulary and sketch inventory.
func (m *Sketch) buildParams() {
	m.tw = nil
	m.ps = &neural.ParamSet{}
	m.emb = neural.NewEmbedding(m.ps, "emb", m.vocab.Size(), m.cfg.EmbDim, m.rng)
	applySynonymClusters(m.emb, m.vocab, m.rng)
	m.enc = neural.NewGRU(m.ps, "enc", m.cfg.EmbDim, m.cfg.HidDim, m.rng)
	m.clsW = neural.NewLinear(m.ps, "cls", m.cfg.HidDim, len(m.sketches), m.rng)
	m.slotW = make([]*neural.Mat, numScorers)
	for k := range m.slotW {
		m.slotW[k] = m.ps.Register(fmt.Sprintf("slotW%02d", k), neural.NewMatRand(m.cfg.EmbDim, m.cfg.HidDim, m.rng))
	}
	m.slotF = m.ps.Register("slotF", neural.NewMat(numScorers, numSlotFeatures))
	for k := 0; k < numScorers; k++ {
		m.slotF.Set(k, 0, 2.0) // positive overlap prior
	}
}

// buildPlan derives the decode plan from the current weights.
func (m *Sketch) buildPlan() { m.plan = neural.NewGRUPlan(m.enc, m.emb) }

// sketchWork is a model's training scratch, which every step reuses:
// the encoder's GRU workspace and token ids, and the classifier,
// slot-scoring and linking buffers. Nothing in it outlives a step.
type sketchWork struct {
	enc               *neural.GRUWork
	ids               []int
	zero, dEnc        []float64 // HidDim each
	probs             []float64 // one per sketch
	proj, dProj, gEmb []float64 // EmbDim each
	scores            []float64 // one per candidate
	embs              []float64 // EmbDim per candidate
	feats             [][numSlotFeatures]float64
	nlc               nlContext
}

// work returns the training scratch, building it for the current
// parameters on first use.
func (m *Sketch) work() *sketchWork {
	if m.tw == nil {
		e, h := m.cfg.EmbDim, m.cfg.HidDim
		m.tw = &sketchWork{
			enc:  m.enc.NewWork(),
			zero: make([]float64, h), dEnc: make([]float64, h),
			probs: make([]float64, m.clsW.Out),
			proj:  make([]float64, e), dProj: make([]float64, e),
			gEmb: make([]float64, e),
		}
	}
	return m.tw
}

// encodeNL runs the GRU encoder over the NL tokens, caching every step
// in w for encBackward, and returns the final state, which lives in w.
func (m *Sketch) encodeNL(w *sketchWork, nl []string) []float64 {
	w.ids = w.ids[:0]
	for _, t := range nl {
		w.ids = append(w.ids, m.vocab.ID(t))
	}
	h := w.zero
	for t, id := range w.ids {
		h = m.enc.Forward(w.enc, t, m.emb.Lookup(id), h)
	}
	return h
}

// encodeInfer is the inference-only encoder: the same GRU pass as
// encodeNL, stepped through the decode plan with no backprop cache. The
// result is bit-identical to encodeNL's (GRUPlan.Step replays
// Forward's operation order).
func (m *Sketch) encodeInfer(nl []string) []float64 {
	p, hid := m.plan, m.cfg.HidDim
	buf := make([]float64, hid+p.ScratchLen())
	h, scratch := buf[:hid:hid], buf[hid:]
	for _, id := range m.vocab.Encode(nl) {
		p.Step(id, h, h, scratch)
	}
	return h
}

// encBackward backpropagates a gradient on the final state through the
// GRU pass encodeNL left in w and the embeddings.
func (m *Sketch) encBackward(w *sketchWork, dFinal []float64) {
	dh := dFinal
	for i := len(w.ids) - 1; i >= 0; i-- {
		dx, dhPrev := m.enc.Backward(w.enc, i, dh)
		m.emb.AccumGrad(w.ids[i], dx)
		dh = dhPrev
	}
}

// candEmb sets out, which must be zero, to the candidate's embedding:
// the mean of its own vocabulary embedding and the embeddings of its
// subtokens parts.
func (m *Sketch) candEmb(c string, parts []string, out []float64) []float64 {
	n := float64(len(parts)) + 1
	neural.Axpy(1/n, m.emb.Lookup(m.vocab.ID(c)), out)
	for _, p := range parts {
		neural.Axpy(1/n, m.emb.Lookup(m.vocab.ID(p)), out)
	}
	return out
}

// candEmbGrad backpropagates a gradient into the constituent
// embeddings of the candidate with subtokens parts. It divides g in
// place.
func (m *Sketch) candEmbGrad(c string, parts []string, g []float64) {
	n := float64(len(parts)) + 1
	for i := range g {
		g[i] /= n
	}
	m.emb.AccumGrad(m.vocab.ID(c), g)
	for _, p := range parts {
		m.emb.AccumGrad(m.vocab.ID(p), g)
	}
}

// candSubtokens splits a schema token into lemmatized word parts for
// linking features and embedding pooling. Lemmatization aligns the
// parts with the lemmatized NL tokens ("cities" -> "city"), which is
// what makes the linking features fire on unseen schemas.
func candSubtokens(c string) []string {
	c = strings.TrimPrefix(c, "@")
	c = strings.ToLower(c)
	parts := strings.FieldsFunc(c, func(r rune) bool { return r == '.' || r == '_' })
	for i, p := range parts {
		parts[i] = lemma.Lemmatize(p)
	}
	return parts
}

// nlContext precomputes the linking-feature lookups for one question.
type nlContext struct {
	set    map[string]bool // lemmatized NL tokens
	phSet  map[string]bool // subtokens of placeholder tokens
	pos    map[string]int  // first position of each lemmatized token
	length int
}

func newNLContext(nl []string) *nlContext { return new(nlContext).reset(nl) }

// reset fills c for the question nl, reusing its maps.
func (c *nlContext) reset(nl []string) *nlContext {
	if c.set == nil {
		c.set, c.phSet, c.pos = map[string]bool{}, map[string]bool{}, map[string]int{}
	} else {
		clear(c.set)
		clear(c.phSet)
		clear(c.pos)
	}
	c.length = len(nl)
	for i, t := range nl {
		lt := strings.ToLower(strings.TrimPrefix(t, "@"))
		ll := lemma.Lemmatize(lt)
		c.set[lt] = true
		c.set[ll] = true
		if _, ok := c.pos[ll]; !ok {
			c.pos[ll] = i
		}
		if strings.HasPrefix(t, "@") {
			for _, p := range candSubtokens(t) {
				c.phSet[p] = true
				c.set[p] = true
				if _, ok := c.pos[p]; !ok {
					c.pos[p] = i
				}
			}
		}
	}
	return c
}

// features computes the schema-linking feature vector for a candidate
// with subtokens parts.
func (c *nlContext) features(parts []string) [numSlotFeatures]float64 {
	if len(parts) == 0 {
		return [numSlotFeatures]float64{}
	}
	hit, phHit := 0, 0
	first := -1
	for _, p := range parts {
		if c.set[p] {
			hit++
			if i, ok := c.pos[p]; ok && (first < 0 || i < first) {
				first = i
			}
		}
		if c.phSet[p] {
			phHit++
		}
	}
	var f [numSlotFeatures]float64
	f[0] = float64(hit) / float64(len(parts))
	if first >= 0 && c.length > 1 {
		f[1] = 1 - float64(first)/float64(c.length-1)
	}
	f[2] = float64(phHit) / float64(len(parts))
	return f
}

// slotScores scores every candidate for the (clause, kind) scorer k
// into w, keeping the projected encoding and each candidate's
// embedding (EmbDim values from embs[i*EmbDim]) and features for
// backprop. The results stay valid until the next call on w.
func (m *Sketch) slotScores(w *sketchWork, k int, enc []float64, cands candList, nlc *nlContext) (scores, embs, proj []float64, feats [][numSlotFeatures]float64) {
	n, e := len(cands.toks), m.cfg.EmbDim
	proj = w.proj
	m.slotW[k].MulVec(enc, proj)
	w.scores = slices.Grow(w.scores[:0], n)[:n]
	w.embs = slices.Grow(w.embs[:0], n*e)[:n*e]
	w.feats = slices.Grow(w.feats[:0], n)[:n]
	scores, embs, feats = w.scores, w.embs, w.feats
	clear(embs)
	fr := m.slotF.Row(k)
	for i, c := range cands.toks {
		emb := m.candEmb(c, cands.subs[i], embs[i*e:(i+1)*e])
		feats[i] = nlc.features(cands.subs[i])
		scores[i] = candScore(emb, proj, fr, &feats[i])
	}
	return scores, embs, proj, feats
}

// candScore is a candidate's slot score: its embedding against the
// projected encoding plus the weighted linking features.
func candScore(emb, proj, fr []float64, f *[numSlotFeatures]float64) float64 {
	s := neural.Dot(emb, proj)
	for j := 0; j < numSlotFeatures; j++ {
		s += fr[j] * f[j]
	}
	return s
}

// slotScratch is one decode's scratch for scoring slot candidates.
type slotScratch struct {
	proj, emb, scores []float64
}

// scoreSlot is slotScores for decoding: the same scores, written to
// the scratch, with no embedding or features kept per candidate. The
// returned slice is valid until the next call.
func (m *Sketch) scoreSlot(k int, enc []float64, cands candList, nlc *nlContext, sc *slotScratch) []float64 {
	if sc.proj == nil {
		sc.proj, sc.emb = make([]float64, m.cfg.EmbDim), make([]float64, m.cfg.EmbDim)
	}
	m.slotW[k].MulVec(enc, sc.proj)
	sc.scores = sc.scores[:0]
	fr := m.slotF.Row(k)
	for i, c := range cands.toks {
		clear(sc.emb)
		f := nlc.features(cands.subs[i])
		sc.scores = append(sc.scores, candScore(m.candEmb(c, cands.subs[i], sc.emb), sc.proj, fr, &f))
	}
	return sc.scores
}

// step trains on one example, with its sketch and gold slot fillers
// from the inventory: sketch classification + slot filling.
func (m *Sketch) step(ex Example, es exSketch) {
	w := m.work()
	ss := m.sets.get(ex.Schema)
	sk := &m.sketches[es.id]
	enc := m.encodeNL(w, ex.NL)
	nlc := w.nlc.reset(ex.NL)

	// Sketch classification loss. The softmax becomes its own gradient,
	// which Backward adds into the zeroed dEnc.
	dEnc := w.dEnc
	clear(dEnc)
	dLogits := neural.Softmax(m.clsW.Forward(enc, w.probs), w.probs)
	dLogits[es.id] -= 1
	m.clsW.Backward(enc, dLogits, dEnc)

	// Slot-filling losses.
	var rolePos [int(numClauses) * int(numKinds)]int
	e := m.cfg.EmbDim
	for si, kind := range sk.kinds {
		cands := ss.byKind[kind]
		goldIdx := indexOf(cands.toks, es.gold[si])
		role := int(sk.clauses[si])*int(numKinds) + int(kind)
		k := scorerIndex(sk.clauses[si], kind, rolePos[role])
		rolePos[role]++
		if goldIdx < 0 || len(cands.toks) < 2 {
			continue
		}
		scores, embs, proj, feats := m.slotScores(w, k, enc, cands, nlc)
		sp := neural.Softmax(scores, scores)
		dProj := w.dProj
		clear(dProj)
		frG := m.slotF.GradRow(k)
		for i, c := range cands.toks {
			ds := sp[i]
			if i == goldIdx {
				ds -= 1
			}
			if ds == 0 {
				continue
			}
			neural.Axpy(ds, embs[i*e:(i+1)*e], dProj)
			gEmb := w.gEmb
			clear(gEmb)
			neural.Axpy(ds, proj, gEmb)
			m.candEmbGrad(c, cands.subs[i], gEmb)
			for j := 0; j < numSlotFeatures; j++ {
				frG[j] += ds * feats[i][j]
			}
		}
		m.slotW[k].BackwardVec(dProj, enc, dEnc)
	}

	m.encBackward(w, dEnc)
}

func indexOf(list []string, x string) int {
	for i, v := range list {
		if v == x {
			return i
		}
	}
	return -1
}

// Translate implements Translator: classify the sketch, then fill each
// slot with the best candidate of the slot's kind. Candidates already
// used inside the same SELECT list are penalized so projections do not
// degenerate to a repeated column.
func (m *Sketch) Translate(nl, schemaToks []string) []string {
	out := m.TranslateK(nl, schemaToks, 1)
	if len(out) == 0 {
		return nil
	}
	return out[0]
}

// Loss returns the example's combined loss without updating gradients
// (used by tests and gradient checks).
//
//lint:allow deadcode reference implementation: the gradient checks difference it against the analytic gradient
func (m *Sketch) Loss(ex Example) float64 {
	ss := m.sets.get(ex.Schema)
	sk, gold := sketchOf(ex.SQL, ss)
	skID, ok := m.byKey[sk.key]
	if !ok {
		return 0
	}
	w := m.work()
	enc := m.encodeNL(w, ex.NL)
	nlc := newNLContext(ex.NL)
	logits := m.clsW.Forward(enc, neural.NewVec(m.clsW.Out))
	probs := neural.Softmax(logits, neural.NewVec(len(logits)))
	loss := -math.Log(math.Max(probs[skID], 1e-12))
	rolePos := map[int]int{}
	for si, kind := range sk.kinds {
		cands := ss.byKind[kind]
		goldIdx := indexOf(cands.toks, gold[si])
		role := int(sk.clauses[si])*int(numKinds) + int(kind)
		k := scorerIndex(sk.clauses[si], kind, rolePos[role])
		rolePos[role]++
		if goldIdx < 0 || len(cands.toks) < 2 {
			continue
		}
		scores, _, _, _ := m.slotScores(w, k, enc, cands, nlc)
		sp := neural.Softmax(scores, neural.NewVec(len(scores)))
		loss += -math.Log(math.Max(sp[goldIdx], 1e-12))
	}
	return loss
}
