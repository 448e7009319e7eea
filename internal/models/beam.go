package models

import (
	"math"
	"sort"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// TranslateBeam decodes with beam search of the given width, returning
// up to width candidate token sequences ordered by length-normalized
// log-likelihood (best first). Width 1 degenerates to greedy decoding.
// The runtime's beam (runtime.Translator.Beam) hands the alternatives
// to the critic, whose validity-first rerank recovers from candidates
// that fail to execute.
func (m *Seq2Seq) TranslateBeam(nl, schemaToks []string, width int) [][]string {
	if m.vocab == nil {
		return nil
	}
	if width < 1 {
		width = 1
	}
	d := m.newInference(nl, schemaToks)

	type beam struct {
		toks   []string
		logp   float64
		h      []float64
		prevID int
		done   bool
	}
	beams := []beam{{h: d.final, prevID: tokens.BosID}}
	var finished []beam

	for step := 0; step < m.cfg.MaxOutLen && len(beams) > 0; step++ {
		var expanded []beam
		for _, bm := range beams {
			// The children share their parent's new state; no step
			// writes a state after creating it.
			hNew := make([]float64, m.cfg.HidDim)
			alpha, pv, pgen := d.step(bm.prevID, bm.h, hNew)
			for _, cand := range m.topTokens(pv, pgen, alpha, d.input, width+1) {
				nb := beam{
					logp:   bm.logp + math.Log(math.Max(cand.p, 1e-12)),
					h:      hNew,
					prevID: m.vocab.ID(cand.tok),
				}
				if cand.tok == tokens.EosToken {
					nb.toks = bm.toks
					nb.done = true
					finished = append(finished, nb)
					continue
				}
				nb.toks = append(append([]string{}, bm.toks...), cand.tok)
				expanded = append(expanded, nb)
			}
		}
		sort.SliceStable(expanded, func(i, j int) bool { return expanded[i].logp > expanded[j].logp })
		if len(expanded) > width {
			expanded = expanded[:width]
		}
		beams = expanded
	}
	// Unfinished beams still count (length cap reached).
	finished = append(finished, beams...)
	sort.SliceStable(finished, func(i, j int) bool {
		return normLogp(finished[i].logp, len(finished[i].toks)) > normLogp(finished[j].logp, len(finished[j].toks))
	})
	var out [][]string
	seen := map[string]bool{}
	for _, bm := range finished {
		key := joinKey(bm.toks)
		if seen[key] || len(bm.toks) == 0 {
			continue
		}
		seen[key] = true
		out = append(out, bm.toks)
		if len(out) >= width {
			break
		}
	}
	return out
}

// TranslateK implements the runtime's ranked-alternatives contract
// (runtime.KTranslator).
func (m *Seq2Seq) TranslateK(nl, schemaToks []string, k int) [][]string {
	return m.TranslateBeam(nl, schemaToks, k)
}

func normLogp(logp float64, length int) float64 {
	if length == 0 {
		return math.Inf(-1)
	}
	return logp / float64(length)
}

func joinKey(toks []string) string {
	out := ""
	for _, t := range toks {
		out += t + "\x1f"
	}
	return out
}

// scored token candidate.
type tokCand struct {
	tok string
	p   float64
}

// topTokens returns the k most probable next tokens of the mixture
// distribution (vocabulary + copy), excluding structural specials
// other than EOS: pv is the vocabulary softmax, pgen the
// generate-vs-copy weight, alpha the attention over inputToks.
func (m *Seq2Seq) topTokens(pv []float64, pgen float64, alpha []float64, inputToks []string, k int) []tokCand {
	copyMass := map[string]float64{}
	for i, tok := range inputToks {
		copyMass[tok] += alpha[i]
	}
	var cands []tokCand
	for id, pvID := range pv {
		if id == tokens.PadID || id == tokens.BosID || id == tokens.UnkID {
			continue
		}
		w := m.vocab.Word(id)
		if w == tokens.SepToken {
			continue
		}
		p := pgen * pvID
		if cm, ok := copyMass[w]; ok {
			p += (1 - pgen) * cm
		}
		cands = append(cands, tokCand{tok: w, p: p})
	}
	for _, tok := range sortedKeys(copyMass) {
		if m.vocab.Has(tok) || tok == tokens.SepToken {
			continue
		}
		cands = append(cands, tokCand{tok: tok, p: (1 - pgen) * copyMass[tok]})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].p > cands[j].p })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// TranslateK for the sketch model: the top-k sketches by classifier
// score, each filled with its best slot candidates.
func (m *Sketch) TranslateK(nl, schemaToks []string, k int) [][]string {
	if m.vocab == nil || len(m.sketches) == 0 {
		return nil
	}
	ss := m.sets.get(schemaToks)
	enc := m.encodeInfer(nl)
	nlc := newNLContext(nl)

	top := topK(m.clsW.Forward(enc, neural.NewVec(m.clsW.Out)), k)
	out := make([][]string, 0, len(top))
	var sc slotScratch
	for _, skID := range top {
		out = append(out, m.fillSketch(m.sketches[skID], ss, enc, nlc, &sc))
	}
	return out
}

// fillSketch fills one sketch's slots (shared by Translate and
// TranslateK).
func (m *Sketch) fillSketch(sk sketch, ss *schemaSet, enc []float64, nlc *nlContext, sc *slotScratch) []string {
	out := make([]string, 0, len(sk.tokens))
	si := 0
	usedInSelect := map[string]bool{}
	rolePos := map[int]int{}
	for _, t := range sk.tokens {
		if t != slotMarker {
			out = append(out, t)
			continue
		}
		kind := sk.kinds[si]
		cl := sk.clauses[si]
		si++
		role := int(cl)*int(numKinds) + int(kind)
		kIdx := scorerIndex(cl, kind, rolePos[role])
		rolePos[role]++
		cands := ss.byKind[kind]
		if len(cands.toks) == 0 {
			cands = ss.all
		}
		if len(cands.toks) == 0 {
			out = append(out, "<unk>")
			continue
		}
		scores := m.scoreSlot(kIdx, enc, cands, nlc, sc)
		if cl == clauseSelect {
			for i, c := range cands.toks {
				if usedInSelect[c] {
					scores[i] -= 1.0
				}
			}
		}
		best := cands.toks[argmaxIdx(scores)]
		if cl == clauseSelect {
			usedInSelect[best] = true
		}
		out = append(out, best)
	}
	return out
}

// topK returns the indices of the k largest values of v, largest
// first, ties to the lower index: the first k indices of a stable
// descending sort, found without sorting the rest. NaNs have no rank.
func topK(v []float64, k int) []int {
	k = max(0, min(k, len(v)))
	idx := make([]int, 0, k)
	for i, x := range v {
		p := len(idx)
		for p > 0 && x > v[idx[p-1]] {
			p--
		}
		if p == k {
			continue
		}
		if len(idx) < k {
			idx = append(idx, 0)
		}
		copy(idx[p+1:], idx[p:])
		idx[p] = i
	}
	return idx
}

func argmaxIdx(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
