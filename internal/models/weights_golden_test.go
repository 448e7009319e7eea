package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/neural"
	"repro/internal/patients"
)

// weightsGolden pins the SHA-256 of what SaveFull writes after two
// epochs over a capped slice of the Patients corpus, per model: the
// vocabulary, the sketch inventory and every weight's name, shape and
// bits. The config is not hashed; savedHash checks the decoded one
// against the trained one field by field instead, so adding or removing
// a config field leaves the hashes where they are. Any change to the
// per-element arithmetic of forward, backward, clipping or the
// optimizer moves them. The hash is taken over the decoded content, not
// the gob bytes: gob numbers its wire types per process, in first-use
// order, so the same model encodes to different bytes depending on what
// else the test binary encoded first.
var weightsGolden = map[string]string{
	"sketch":  "352eaf1472cac8419b46b94bf4d9793447b544535c6658020c8ff26cb0f16c8d",
	"seq2seq": "c648133bdc3d9821311d6c59d26d2d0a3c29431c207ea27d423b7e4a8f19cfb8",
}

var patientsExamples = sync.OnceValue(func() []Example {
	s := patients.Schema()
	return PairExamples(core.New(s, core.DefaultParams(), 1).Run(), s)
})

// savedHash decodes what save writes into out (a *savedSketch or
// *savedSeq2Seq), checks that the decoded config equals cfg, the one
// the model was trained with, and hashes the rest canonically.
func savedHash(t *testing.T, save func(io.Writer) error, out, cfg any) string {
	t.Helper()
	roundTrip(t, save, out)
	var (
		saved    any
		vocab    []string
		sketches []savedSketchEntry
		mats     []savedParam
	)
	switch s := out.(type) {
	case *savedSketch:
		saved, vocab, sketches, mats = s.Config, s.Vocab, s.Sketches, s.Mats
	case *savedSeq2Seq:
		saved, vocab, mats = s.Config, s.Vocab, s.Mats
	}
	if saved != cfg {
		t.Errorf("saved config %+v, trained with %+v", saved, cfg)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%q\n%+v\n", vocab, sketches)
	var b [8]byte
	for _, m := range mats {
		fmt.Fprintf(h, "%s %d %d\n", m.Name, m.R, m.C)
		for _, w := range m.W {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightsGolden runs on both of the neural package's
// dispatches: the AVX2 kernels of Adam.Step and BackwardVec must
// produce the same bits as the scalar loops.
func TestTrainedWeightsGolden(t *testing.T) {
	for _, d := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"generic", false}} {
		t.Run(d.name, func(t *testing.T) {
			restore, ok := neural.SetAVX2ForTesting(d.avx2)
			if !ok {
				t.Skip("CPU lacks AVX2")
			}
			defer restore()
			exs := patientsExamples()
			scfg := DefaultSketchConfig()
			scfg.Epochs, scfg.SampleCap = 2, 48
			sk := NewSketch(scfg)
			sk.Train(exs)

			qcfg := DefaultSeq2SeqConfig()
			qcfg.Epochs, qcfg.SampleCap = 2, 24
			sq := NewSeq2Seq(qcfg)
			sq.Train(exs)

			for _, c := range []struct {
				model string
				save  func(io.Writer) error
				out   any
				cfg   any
			}{{"sketch", sk.SaveFull, &savedSketch{}, sk.cfg}, {"seq2seq", sq.SaveFull, &savedSeq2Seq{}, sq.cfg}} {
				if got := savedHash(t, c.save, c.out, c.cfg); got != weightsGolden[c.model] {
					t.Errorf("%s: SaveFull sha256 = %s, want %s", c.model, got, weightsGolden[c.model])
				}
			}
		})
	}
}
