package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
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

// weightsGolden pins the SHA-256 of what SaveFull writes (config +
// vocabulary + sketch inventory + every weight bit) after two epochs
// over a capped slice of the Patients corpus, per model and batch size. The hashes were captured before
// the training kernels were last rewritten; any change to the per-
// element arithmetic of forward, backward, clipping or the optimizer
// moves them. Worker count must not: each hash is checked at 1 and 4
// workers, with the saved config's Workers field (the one thing that
// differs) cleared before hashing. The hash is taken over the decoded
// content, not the gob bytes: gob numbers its wire types per process,
// in first-use order, so the same model encodes to different bytes
// depending on what else the test binary encoded first.
var weightsGolden = map[string]string{
	"sketch/batch1":  "9431644953b5c92cdde350207227e56d64b9f35c97070f809a7e9e814bdf998a",
	"sketch/batch4":  "265a16a2d2013ec62191754148378278eaf02e35b51bfd1eb05444f272d50675",
	"seq2seq/batch1": "d3ff224eeb90bf917022c7cf06934fc020688c15b28f9ac1313f7dc480c5ade4",
	"seq2seq/batch4": "28e48dda5c19dddea5b41640be553e1a2122ca09f9eeb2ed35df21f40d754a2e",
}

var patientsExamples = sync.OnceValue(func() []Example {
	s := patients.Schema()
	return PairExamples(core.New(s, core.DefaultParams(), 1).Run(), s)
})

// savedHash decodes what save writes into out (a *savedSketch or
// *savedSeq2Seq) and hashes the content canonically, Workers cleared.
func savedHash(t *testing.T, save func(io.Writer) error, out any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	var (
		cfg      any
		vocab    []string
		sketches []savedSketchEntry
		mats     []savedParam
	)
	switch s := out.(type) {
	case *savedSketch:
		s.Config.Workers = 0
		cfg, vocab, sketches, mats = s.Config, s.Vocab, s.Sketches, s.Mats
	case *savedSeq2Seq:
		s.Config.Workers = 0
		cfg, vocab, mats = s.Config, s.Vocab, s.Mats
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%q\n%+v\n", cfg, vocab, sketches)
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
			for _, batch := range []int{1, 4} {
				for _, workers := range []int{1, 4} {
					scfg := DefaultSketchConfig()
					scfg.Epochs, scfg.SampleCap = 2, 48
					scfg.BatchSize, scfg.Workers = batch, workers
					sk := NewSketch(scfg)
					sk.Train(exs)

					qcfg := DefaultSeq2SeqConfig()
					qcfg.Epochs, qcfg.SampleCap = 2, 24
					qcfg.BatchSize, qcfg.Workers = batch, workers
					sq := NewSeq2Seq(qcfg)
					sq.Train(exs)

					for _, c := range []struct {
						model string
						save  func(io.Writer) error
						out   any
					}{{"sketch", sk.SaveFull, &savedSketch{}}, {"seq2seq", sq.SaveFull, &savedSeq2Seq{}}} {
						key := fmt.Sprintf("%s/batch%d", c.model, batch)
						if got := savedHash(t, c.save, c.out); got != weightsGolden[key] {
							t.Errorf("%s at %d workers: SaveFull sha256 = %s, want %s", key, workers, got, weightsGolden[key])
						}
					}
				}
			}
		})
	}
}
