package models

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/neural"
	"repro/internal/tokens"
)

// decodeQuestions mixes trained phrasings, unseen phrasings, and
// different lengths, so decoding exercises short and long encoder
// passes, early and late EOS, and OOV copy tokens.
func decodeQuestions() [][]string {
	return [][]string{
		strings.Fields("show the name of patient with age @PATIENTS.AGE"),
		strings.Fields("how many patient be there"),
		strings.Fields("show the diagnosis of patient with age @PATIENTS.AGE"),
		strings.Fields("what be the average age of patient"),
		strings.Fields("list patient with diagnosis @PATIENTS.DIAGNOSIS"),
		strings.Fields("name of the oldest patient please"),
		strings.Fields("age"),
		strings.Fields("show name and diagnosis of every patient with age @PATIENTS.AGE and more words"),
	}
}

// referenceTranslate is greedy decoding through the training-path
// forward pass (encode and forwardStep, with their backprop caches):
// the decoder Translate must reproduce bit for bit.
func referenceTranslate(m *Seq2Seq, nl, schemaToks []string) []string {
	w := m.work()
	m.encode(w, nl, schemaToks)
	h, prevID := w.final, tokens.BosID
	var out []string
	for step := 0; step < m.cfg.MaxOutLen; step++ {
		st := m.forwardStep(w, step, prevID, h)
		tok := m.pickToken(st.pv, st.pgen, st.alpha, w.input)
		if tok == tokens.EosToken {
			break
		}
		out = append(out, tok)
		h, prevID = st.hDec, m.vocab.ID(tok)
	}
	return out
}

// TestSeq2SeqDecodeGolden: Seq2Seq.Translate on the decode plans is
// bit-identical to greedy decoding through the training-path forward
// pass on both of the neural package's dispatches, and beam decoding
// gives the same beams on both. The model is trained once, on the
// default dispatch.
func TestSeq2SeqDecodeGolden(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	var outs [2][][]string
	for di, d := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"generic", false}} {
		t.Run(d.name, func(t *testing.T) {
			restore, ok := neural.SetAVX2ForTesting(d.avx2)
			if !ok {
				t.Skip("CPU lacks AVX2")
			}
			defer restore()
			for _, nl := range decodeQuestions() {
				got, want := m.Translate(nl, st), referenceTranslate(m, nl, st)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Translate diverged for %v:\n  plan:      %v\n  reference: %v", nl, got, want)
				}
				outs[di] = append(outs[di], got)
				outs[di] = append(outs[di], m.TranslateBeam(nl, st, 3)...)
			}
		})
	}
	if outs[0] != nil && outs[1] != nil && !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("decodes differ across dispatches:\n  avx2:    %v\n  generic: %v", outs[0], outs[1])
	}
}

// TestTranslateUnseenSchema: the copy path survives the plan decode —
// OOV schema tokens of a never-seen database still come out exactly as
// the reference decode emits them.
func TestTranslateUnseenSchema(t *testing.T) {
	m := trainedSeq2Seq(t)
	st := []string{"ships", "label", "tonnage", "ships.label", "ships.tonnage", "@SHIPS.TONNAGE", "@JOIN"}
	for _, q := range []string{"show the label of ship with tonnage @SHIPS.TONNAGE", "how many ship be there"} {
		nl := strings.Fields(q)
		if got, want := m.Translate(nl, st), referenceTranslate(m, nl, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("unseen-schema decode diverged for %q:\n  plan:      %v\n  reference: %v", q, got, want)
		}
	}
}

// TestTranslateEdgeCases: an untrained model decodes nothing, and an
// empty question still decodes like the reference.
func TestTranslateEdgeCases(t *testing.T) {
	untrained := NewSeq2Seq(DefaultSeq2SeqConfig())
	if out := untrained.Translate([]string{"x"}, []string{"t"}); out != nil {
		t.Fatalf("untrained Translate = %v, want nil", out)
	}
	m := trainedSeq2Seq(t)
	st := trainingExamples()[0].Schema
	if got, want := m.Translate(nil, st), referenceTranslate(m, nil, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty question: plan %v, reference %v", got, want)
	}
}

// trainedSketch is a sketch model fit to the patients examples.
func trainedSketch(t *testing.T) *Sketch {
	t.Helper()
	cfg := DefaultSketchConfig()
	cfg.Epochs = 30
	m := NewSketch(cfg)
	m.Train(trainingExamples())
	return m
}

// TestEncodeInferMatchesEncodeNL: the sketch model's inference encoder,
// which runs on its decode plan, returns exactly the final state of
// the training encoder, bit for bit.
func TestEncodeInferMatchesEncodeNL(t *testing.T) {
	m := trainedSketch(t)
	nls := decodeQuestions()
	for _, ex := range trainingExamples() {
		nls = append(nls, ex.NL)
	}
	for _, nl := range append(nls, nil) {
		got, want := m.encodeInfer(nl), m.encodeNL(m.work(), nl)
		if len(got) != len(want) {
			t.Fatalf("%v: length %d, want %d", nl, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: state[%d] = %v, want %v", nl, i, got[i], want[i])
			}
		}
	}
}

// Allocation ceilings for one decode of the fixed question below. The
// decoders step through their decode plans into buffers cut from one
// allocation per call instead of building a backprop cache per token,
// the sketch model scores slot candidates from its memoized schema set
// into per-call scratch and picks its top sketches without sorting
// them all: measured 27 allocations for the sketch model and 63 for
// seq2seq (both also under -race), where the training-path
// forward pass took 211 and 461 when inference got its own cache-free
// path, and the sketch model took 88 before the schema sets were
// memoized and 49 before the decode plan and the scratch scoring. The
// sketch ceiling is the measured count; seq2seq's sits about a third
// above it.
const (
	sketchTranslateAllocsMax  = 27
	seq2seqTranslateAllocsMax = 85
)

// TestTranslateAllocs holds both decoders under their ceilings.
func TestTranslateAllocs(t *testing.T) {
	nl := strings.Fields("show name and diagnosis of every patient with age @PATIENTS.AGE and more words")
	st := trainingExamples()[0].Schema
	sk := trainedSketch(t)
	s2 := trainedSeq2Seq(t)
	skAllocs := testing.AllocsPerRun(20, func() { sk.Translate(nl, st) })
	s2Allocs := testing.AllocsPerRun(20, func() { s2.Translate(nl, st) })
	t.Logf("allocs per Translate: sketch %.0f, seq2seq %.0f", skAllocs, s2Allocs)
	if skAllocs > sketchTranslateAllocsMax {
		t.Errorf("Sketch.Translate allocates %.0f times per call, ceiling %d", skAllocs, sketchTranslateAllocsMax)
	}
	if s2Allocs > seq2seqTranslateAllocsMax {
		t.Errorf("Seq2Seq.Translate allocates %.0f times per call, ceiling %d", s2Allocs, seq2seqTranslateAllocsMax)
	}
}

// BenchmarkTranslate times one decode of the fixed question per model:
//
//	go test -run '^$' -bench BenchmarkTranslate -benchmem ./internal/models/
func BenchmarkTranslate(b *testing.B) {
	nl := strings.Fields("show name and diagnosis of every patient with age @PATIENTS.AGE and more words")
	st := trainingExamples()[0].Schema
	skCfg := DefaultSketchConfig()
	skCfg.Epochs = 1
	sk := NewSketch(skCfg)
	sk.Train(trainingExamples())
	s2Cfg := DefaultSeq2SeqConfig()
	s2Cfg.Epochs = 1
	s2 := NewSeq2Seq(s2Cfg)
	s2.Train(trainingExamples())
	for _, m := range []Translator{sk, s2} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Translate(nl, st)
			}
		})
	}
}
