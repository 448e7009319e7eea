package models

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// Seq2SeqConfig sizes and schedules the seq2seq translator. The
// defaults are deliberately small: the repository targets single-core
// CPU training (see DESIGN.md).
type Seq2SeqConfig struct {
	EmbDim    int     // embedding dimension
	HidDim    int     // GRU hidden dimension
	LR        float64 // Adam learning rate
	Epochs    int     // training epochs
	SampleCap int     // max examples used per epoch (0 = all)
	MaxOutLen int     // decoding length cap
	GradClip  float64 // global gradient-norm clip
	MinCount  int     // vocabulary min token count
	Seed      int64
}

// DefaultSeq2SeqConfig returns the standard small configuration.
func DefaultSeq2SeqConfig() Seq2SeqConfig {
	return Seq2SeqConfig{
		EmbDim:    48,
		HidDim:    96,
		LR:        0.002,
		Epochs:    6,
		SampleCap: 4000,
		MaxOutLen: 48,
		GradClip:  5,
		MinCount:  1,
		Seed:      1,
	}
}

// Seq2Seq is an attention + copy (pointer-generator) encoder-decoder:
// a GRU encoder over [NL tokens, <sep>, schema tokens], a GRU decoder
// with Luong dot attention over encoder states, and an output mixture
// of a vocabulary softmax and a copy distribution over input
// positions. The copy path lets the model emit schema tokens of
// databases never seen in training — the mechanism that makes the
// translator usable in the Spider-style cross-schema evaluation.
type Seq2Seq struct {
	cfg   Seq2SeqConfig
	vocab *tokens.Vocab
	ps    *neural.ParamSet
	emb   *neural.Embedding
	enc   *neural.GRU
	dec   *neural.GRU
	wc    *neural.Linear // comb = tanh(Wc [h_dec; ctx])
	wo    *neural.Linear // vocabulary logits
	wg    *neural.Linear // p_gen scalar
	rng   *rand.Rand
	// encPlan and decPlan are the encoder's and the decoder's decode
	// plans, derived from emb, enc and dec. Only TrainContext and
	// LoadSeq2Seq write weights; TrainContext drops the plans when it
	// starts and both build them once the weights are final, so
	// non-nil plans always match the weights.
	encPlan, decPlan *neural.GRUPlan
	// tw is the training scratch, built on first use after build and
	// dropped when TrainContext returns.
	tw *s2sWork
}

// NewSeq2Seq returns an untrained model; parameters are allocated at
// Train time once the vocabulary is known.
func NewSeq2Seq(cfg Seq2SeqConfig) *Seq2Seq {
	return &Seq2Seq{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Translator.
func (m *Seq2Seq) Name() string { return "seq2seq" }

// NumParams returns the number of trainable parameters (0 before
// Train).
func (m *Seq2Seq) NumParams() int {
	if m.ps == nil {
		return 0
	}
	return m.ps.NumParams()
}

func (m *Seq2Seq) build(vocabSize int) {
	m.tw = nil
	m.ps = &neural.ParamSet{}
	m.emb = neural.NewEmbedding(m.ps, "emb", vocabSize, m.cfg.EmbDim, m.rng)
	applySynonymClusters(m.emb, m.vocab, m.rng)
	m.enc = neural.NewGRU(m.ps, "enc", m.cfg.EmbDim, m.cfg.HidDim, m.rng)
	m.dec = neural.NewGRU(m.ps, "dec", m.cfg.EmbDim, m.cfg.HidDim, m.rng)
	m.wc = neural.NewLinear(m.ps, "wc", 2*m.cfg.HidDim, m.cfg.HidDim, m.rng)
	m.wo = neural.NewLinear(m.ps, "wo", m.cfg.HidDim, vocabSize, m.rng)
	m.wg = neural.NewLinear(m.ps, "wg", m.cfg.HidDim, 1, m.rng)
}

// Train implements Translator: teacher-forced training, one Adam step
// per example.
func (m *Seq2Seq) Train(examples []Example) {
	// Background is never done and no checkpointing is configured, so
	// the error is always nil.
	_ = m.TrainContext(context.Background(), examples, TrainOptions{})
}

// TrainContext is Train with cooperative cancellation and optional
// checkpoint/resume. Cancellation is observed between optimizer steps;
// when a checkpoint destination is configured, a final snapshot is
// written before the context's error is returned, so an interrupted run
// never loses completed steps. Resuming from a checkpoint written over
// the same examples and configuration continues the exact weight
// trajectory of the uninterrupted run (see trainSchedule).
func (m *Seq2Seq) TrainContext(ctx context.Context, examples []Example, opts TrainOptions) error {
	if len(examples) == 0 {
		return nil
	}
	m.encPlan, m.decPlan = nil, nil
	defer m.buildPlans()
	defer func() { m.tw = nil }()
	m.vocab = BuildVocabs(examples, m.cfg.MinCount)
	// build draws the same RNG sequence on fresh and resumed runs —
	// that replay, not serialized RNG internals, is what puts the
	// generator back in position after a resume.
	m.build(m.vocab.Size())
	opt := neural.NewAdam(m.ps, m.cfg.LR)

	sched := &trainSchedule{
		epochs:    m.cfg.Epochs,
		sampleCap: m.cfg.SampleCap,
		gradClip:  m.cfg.GradClip,
		rng:       m.rng,
		main:      m.ps,
		opt:       opt,
		accum:     func(exIdx int) { m.backprop(examples[exIdx]) },
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

// restoreCheckpoint copies a checkpoint's weights into the
// freshly-built parameter set, validating that the checkpoint matches
// this model and vocabulary.
func (m *Seq2Seq) restoreCheckpoint(ck *Checkpoint) error {
	if err := resumeKindErr(ck, m.Name()); err != nil {
		return err
	}
	var in savedSeq2Seq
	if err := gob.NewDecoder(bytes.NewReader(ck.Model)).Decode(&in); err != nil {
		return fmt.Errorf("models: resume: decode checkpoint model: %w", err)
	}
	if len(in.Vocab) != m.vocab.Size() {
		return fmt.Errorf("models: resume: vocabulary size %d does not match checkpoint's %d (resume requires the original examples and config)",
			m.vocab.Size(), len(in.Vocab))
	}
	return restoreParams(m.ps.Mats(), m.ps.Names(), in.Mats)
}

// s2sWork is a model's training scratch, which every example reuses:
// the encoder's and the decoder's GRU workspaces, the input and its
// ids, the teacher-forced rollout's per-step records, grown to the
// longest target, and the backward pass's buffers. Nothing in it
// outlives an example.
type s2sWork struct {
	enc, dec *neural.GRUWork
	input    []string
	ids      []int
	states   [][]float64 // the encoder state at each input position, in enc
	final    []float64   // the last encoder state, the decoder's first
	zero     []float64   // HidDim zeros
	steps    []decStep
	g        [1]float64 // the p_gen logit, then its gradient
	// backward
	dEnc                 [][]float64 // per input position, HidDim each
	dAlpha               []float64   // per input position
	dComb, dPre, dConcat []float64   // HidDim, HidDim, 2·HidDim
	dLogits              []float64   // vocabulary
}

// work returns the training scratch, building it for the current
// parameters on first use.
func (m *Seq2Seq) work() *s2sWork {
	if m.tw == nil {
		h := m.cfg.HidDim
		m.tw = &s2sWork{
			enc: m.enc.NewWork(), dec: m.dec.NewWork(),
			zero: make([]float64, h), dComb: make([]float64, h), dPre: make([]float64, h),
			dConcat: make([]float64, 2*h), dLogits: make([]float64, m.wo.Out),
		}
	}
	return m.tw
}

// encode runs the encoder over the input sequence of nl and schemaToks
// (see InputSequence), built in w, caching every step in w.
func (m *Seq2Seq) encode(w *s2sWork, nl, schemaToks []string) {
	w.input = append(append(append(w.input[:0], nl...), tokens.SepToken), schemaToks...)
	w.ids, w.states = w.ids[:0], w.states[:0]
	for _, t := range w.input {
		w.ids = append(w.ids, m.vocab.ID(t))
	}
	h := w.zero
	for t, id := range w.ids {
		h = m.enc.Forward(w.enc, t, m.emb.Lookup(id), h)
		w.states = append(w.states, h)
	}
	w.final = h
}

// decStep holds one decoder step's intermediates for backprop. Its
// buffers belong to the workspace and are overwritten by the next
// rollout.
type decStep struct {
	prevID   int
	hDec     []float64 // in the decoder's GRU workspace
	alpha    []float64 // attention over the input
	concat   []float64 // [hDec; ctx]
	comb     []float64 // tanh(wc concat)
	pv       []float64 // vocabulary softmax
	pgen     float64
	target   string
	targetID int
	prob     float64
}

// forwardStep runs decoder step t from state h (an encoder state or the
// previous step's hDec) over the input encode left in w.
func (m *Seq2Seq) forwardStep(w *s2sWork, t, prevID int, h []float64) *decStep {
	hid := m.cfg.HidDim
	for len(w.steps) <= t {
		buf := make([]float64, 3*hid+m.wo.Out)
		w.steps = append(w.steps, decStep{concat: buf[:2*hid], comb: buf[2*hid : 3*hid], pv: buf[3*hid:]})
	}
	st := &w.steps[t]
	st.prevID = prevID
	st.hDec = m.dec.Forward(w.dec, t, m.emb.Lookup(prevID), h)

	// Luong dot attention over encoder states; Softmax and Tanh may
	// write over their input.
	st.alpha = slices.Grow(st.alpha[:0], len(w.states))[:len(w.states)]
	for i, eh := range w.states {
		st.alpha[i] = neural.Dot(st.hDec, eh)
	}
	neural.Softmax(st.alpha, st.alpha)
	copy(st.concat[:hid], st.hDec)
	ctx := st.concat[hid:]
	clear(ctx)
	for i, a := range st.alpha {
		neural.Axpy(a, w.states[i], ctx)
	}
	neural.Tanh(m.wc.Forward(st.concat, st.comb), st.comb)
	neural.Softmax(m.wo.Forward(st.comb, st.pv), st.pv)
	g := m.wg.Forward(st.comb, w.g[:])[0]
	st.pgen = 1.0 / (1.0 + math.Exp(-g))
	return st
}

// probOf computes the mixture probability of emitting token t.
func (st *decStep) probOf(t string, vocab *tokens.Vocab, input []string) (p, copySum float64, inVocab bool) {
	inVocab = vocab.Has(t)
	if inVocab {
		p = st.pgen * st.pv[vocab.ID(t)]
	}
	for i, tok := range input {
		if tok == t {
			copySum += st.alpha[i]
		}
	}
	p += (1 - st.pgen) * copySum
	return p, copySum, inVocab
}

// rollout runs the teacher-forced forward pass into w and returns the
// number of decoder steps (the target and EOS) and the summed negative
// log-likelihood.
func (m *Seq2Seq) rollout(w *s2sWork, ex Example) (int, float64) {
	m.encode(w, ex.NL, ex.Schema)

	h := w.final
	prevID := tokens.BosID
	n := len(ex.SQL) + 1
	loss := 0.0
	for k := 0; k < n; k++ {
		t := tokens.EosToken
		if k < len(ex.SQL) {
			t = ex.SQL[k]
		}
		st := m.forwardStep(w, k, prevID, h)
		st.target = t
		st.targetID = m.vocab.ID(t)
		p, _, _ := st.probOf(t, m.vocab, w.input)
		st.prob = p
		pc := p
		if pc < 1e-12 {
			pc = 1e-12
		}
		loss += -math.Log(pc)
		h = st.hDec
		prevID = st.targetID // teacher forcing (OOV -> UNK embedding)
	}
	return n, loss
}

// Loss returns the teacher-forced NLL of one example without touching
// gradients (used by gradient checks and validation).
//
//lint:allow deadcode reference implementation: the gradient checks difference it against the analytic gradient
func (m *Seq2Seq) Loss(ex Example) float64 {
	_, loss := m.rollout(m.work(), ex)
	return loss
}

// backprop accumulates gradients for one example and returns its loss.
func (m *Seq2Seq) backprop(ex Example) float64 {
	w := m.work()
	n, loss := m.rollout(w, ex)

	// Backward.
	hid, T := m.cfg.HidDim, len(w.states)
	for len(w.dEnc) < T {
		w.dEnc = append(w.dEnc, make([]float64, hid))
	}
	dEnc := w.dEnc[:T]
	for _, d := range dEnc {
		clear(d)
	}
	dh := w.zero // recurrent grad into decoder step k; never written
	for k := n - 1; k >= 0; k-- {
		st := &w.steps[k]
		p := st.prob
		if p < 1e-12 {
			p = 1e-12
		}
		dP := -1.0 / p

		inVocab := m.vocab.Has(st.target)
		copySum := 0.0
		for i, tok := range w.input {
			if tok == st.target {
				copySum += st.alpha[i]
			}
		}
		// d p_gen and the two mixture branches.
		var dPvT float64
		if inVocab {
			dPvT = dP * st.pgen
		}
		dpgen := 0.0
		if inVocab {
			dpgen += dP * st.pv[st.targetID]
		}
		dpgen -= dP * copySum

		w.dAlpha = slices.Grow(w.dAlpha[:0], T)[:T]
		dAlpha := w.dAlpha
		clear(dAlpha)
		for i, tok := range w.input {
			if tok == st.target {
				dAlpha[i] += dP * (1 - st.pgen)
			}
		}

		// Both output layers add into dComb. A sum from +0 is never -0,
		// so adding each layer's input gradient straight into it gives
		// the bits of forming each separately and adding it.
		dComb := w.dComb
		clear(dComb)

		// Vocabulary softmax backward (single nonzero dPv row).
		if dPvT != 0 {
			pvT := st.pv[st.targetID]
			dLogits := w.dLogits
			for j := range dLogits {
				d := -pvT * st.pv[j]
				if j == st.targetID {
					d += pvT
				}
				dLogits[j] = dPvT * d
			}
			m.wo.Backward(st.comb, dLogits, dComb)
		}

		// p_gen sigmoid backward.
		if dpgen != 0 {
			w.g[0] = dpgen * st.pgen * (1 - st.pgen)
			m.wg.Backward(st.comb, w.g[:], dComb)
		}

		// comb = tanh(wc [h;ctx]) backward.
		dPre := w.dPre
		for i := range dPre {
			dPre[i] = dComb[i] * (1 - st.comb[i]*st.comb[i])
		}
		dConcat := w.dConcat
		clear(dConcat)
		m.wc.Backward(st.concat, dPre, dConcat)
		dHdec, dCtx := dConcat[:hid], dConcat[hid:]

		// ctx = Σ α_i enc_i backward.
		for i, a := range st.alpha {
			neural.Axpy(a, dCtx, dEnc[i])
			dAlpha[i] += neural.Dot(dCtx, w.states[i])
		}
		// Attention softmax backward.
		sumAD := 0.0
		for i, a := range st.alpha {
			sumAD += a * dAlpha[i]
		}
		for i, a := range st.alpha {
			ds := a * (dAlpha[i] - sumAD)
			if ds == 0 {
				continue
			}
			neural.Axpy(ds, w.states[i], dHdec)
			neural.Axpy(ds, st.hDec, dEnc[i])
		}

		// Recurrent grad from the next step.
		for i := range dHdec {
			dHdec[i] += dh[i]
		}
		dx, dhPrev := m.dec.Backward(w.dec, k, dHdec)
		m.emb.AccumGrad(st.prevID, dx)
		dh = dhPrev
	}

	// Encoder backward: decoder initial state was the encoder final
	// state, so dh (now the decoder workspace's) chains straight in.
	for i := T - 1; i >= 0; i-- {
		for j := range dh {
			dh[j] += dEnc[i][j]
		}
		dx, dhPrev := m.enc.Backward(w.enc, i, dh)
		m.emb.AccumGrad(w.ids[i], dx)
		dh = dhPrev
	}
	return loss
}

// buildPlans derives the encoder's and the decoder's decode plans from
// the current weights.
func (m *Seq2Seq) buildPlans() {
	m.encPlan, m.decPlan = neural.NewGRUPlan(m.enc, m.emb), neural.NewGRUPlan(m.dec, m.emb)
}

// inference is one decode on the plans: the input, the encoder's state
// at every position (attention reads them all at every step) and the
// decoder step's buffers, all cut from one allocation. It is
// single-goroutine state.
type inference struct {
	m      *Seq2Seq
	input  []string
	states [][]float64
	final  []float64 // the last encoder state, the decoder's first
	// h is the encoder's zero first state, free once encoding is done.
	h []float64
	// step buffers, overwritten by every step
	scratch, alpha, cat, comb, pv, g []float64
}

// newInference encodes the question and the schema through the encoder
// plan, the same GRU pass as encode with no backprop cache.
func (m *Seq2Seq) newInference(nl, schemaToks []string) *inference {
	input := InputSequence(nl, schemaToks)
	ids := m.vocab.Encode(input)
	hid, n, v := m.cfg.HidDim, len(ids), m.vocab.Size()
	buf := make([]float64, (n+1)*hid+m.decPlan.ScratchLen()+n+3*hid+v+1)
	cut := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	d := &inference{m: m, input: input, states: make([][]float64, n)}
	d.h, d.scratch = cut(hid), cut(m.decPlan.ScratchLen())
	d.final = d.h
	for t, id := range ids {
		d.states[t] = cut(hid)
		m.encPlan.Step(id, d.final, d.states[t], d.scratch)
		d.final = d.states[t]
	}
	d.alpha, d.cat, d.comb, d.pv, d.g = cut(n), cut(2*hid), cut(hid), cut(v), cut(1)
	return d
}

// step is one decoder step with no backprop cache, shared by greedy and
// beam decoding: it advances state h by token prevID into hn (which may
// be h, but not an encoder state) and returns the attention over the
// input, the vocabulary softmax, which stay valid until the next step,
// and the generate-vs-copy weight. Every value is forwardStep's, bit
// for bit.
func (d *inference) step(prevID int, h, hn []float64) (alpha, pv []float64, pgen float64) {
	m, hid := d.m, d.m.cfg.HidDim
	m.decPlan.Step(prevID, h, hn, d.scratch)
	// Luong dot attention; [h; ctx] is assembled in place. Softmax and
	// Tanh may write over their input.
	for i, eh := range d.states {
		d.alpha[i] = neural.Dot(hn, eh)
	}
	alpha = neural.Softmax(d.alpha, d.alpha)
	copy(d.cat[:hid], hn)
	ctx := d.cat[hid:]
	clear(ctx)
	for i, a := range alpha {
		neural.Axpy(a, d.states[i], ctx)
	}
	neural.Tanh(m.wc.Forward(d.cat, d.comb), d.comb)
	pv = neural.Softmax(m.wo.Forward(d.comb, d.pv), d.pv)
	g := m.wg.Forward(d.comb, d.g)[0]
	return alpha, pv, 1.0 / (1.0 + math.Exp(-g))
}

// Translate implements Translator: greedy decoding with the
// generate/copy mixture through the decode plans. Nothing is kept for
// backprop, yet every step replays the training path's operation
// order, so the output is bit-identical to greedy decoding through
// forwardStep.
func (m *Seq2Seq) Translate(nl, schemaToks []string) []string {
	if m.vocab == nil {
		return nil
	}
	d := m.newInference(nl, schemaToks)
	copy(d.h, d.final)
	var out []string
	prevID := tokens.BosID
	for step := 0; step < m.cfg.MaxOutLen; step++ {
		alpha, pv, pgen := d.step(prevID, d.h, d.h)
		tok := m.pickToken(pv, pgen, alpha, d.input)
		if tok == tokens.EosToken {
			break
		}
		out = append(out, tok)
		prevID = m.vocab.ID(tok)
	}
	return out
}

// pickToken is the greedy decoding argmax: pv is the vocabulary
// softmax, pgen the generate-vs-copy mixture weight, alpha the
// attention over inputToks.
func (m *Seq2Seq) pickToken(pv []float64, pgen float64, alpha []float64, inputToks []string) string {
	// Copy mass per distinct input token.
	copyMass := map[string]float64{}
	for i, tok := range inputToks {
		copyMass[tok] += alpha[i]
	}
	bestTok := tokens.EosToken
	bestP := math.Inf(-1)
	for id, pvID := range pv {
		p := pgen * pvID
		w := m.vocab.Word(id)
		if cm, ok := copyMass[w]; ok {
			p += (1 - pgen) * cm
		}
		if id == tokens.PadID || id == tokens.BosID || id == tokens.UnkID || w == tokens.SepToken {
			continue
		}
		if p > bestP {
			bestP, bestTok = p, w
		}
	}
	for _, tok := range sortedKeys(copyMass) {
		if m.vocab.Has(tok) || tok == tokens.SepToken {
			continue // already counted through the vocabulary loop
		}
		p := (1 - pgen) * copyMass[tok]
		if p > bestP {
			bestP, bestTok = p, tok
		}
	}
	return bestTok
}
