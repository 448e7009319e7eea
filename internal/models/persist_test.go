package models

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/neural"
)

// Model files written before the training configs lost their BatchSize
// and Workers fields carry both in their encoded config. These mirror
// that layout field for field.
type (
	oldSketchConfig struct {
		EmbDim, HidDim     int
		LR                 float64
		Epochs, SampleCap  int
		MaxSlots           int
		GradClip           float64
		MinCount           int
		BatchSize, Workers int
		Seed               int64
	}
	oldSavedSketch struct {
		Config   oldSketchConfig
		Vocab    []string
		Sketches []savedSketchEntry
		Mats     []savedParam
	}
	oldSeq2SeqConfig struct {
		EmbDim, HidDim     int
		LR                 float64
		Epochs, SampleCap  int
		MaxOutLen          int
		GradClip           float64
		MinCount           int
		BatchSize, Workers int
		Seed               int64
	}
	oldSavedSeq2Seq struct {
		Config oldSeq2SeqConfig
		Vocab  []string
		Mats   []savedParam
	}
)

// TestOldModelFilesLoad: a file whose config still carries BatchSize
// and Workers loads with LoadSketch/LoadSeq2Seq into the same config,
// the same weight bits and the same translations as the model that
// was saved.
func TestOldModelFilesLoad(t *testing.T) {
	exs := trainingExamples()

	scfg := DefaultSketchConfig()
	scfg.EmbDim, scfg.HidDim, scfg.Epochs = 10, 12, 3
	sk := NewSketch(scfg)
	sk.Train(exs)
	var cur savedSketch
	roundTrip(t, sk.SaveFull, &cur)
	c := cur.Config
	old := oldSavedSketch{
		Config: oldSketchConfig{
			EmbDim: c.EmbDim, HidDim: c.HidDim, LR: c.LR, Epochs: c.Epochs, SampleCap: c.SampleCap,
			MaxSlots: c.MaxSlots, GradClip: c.GradClip, MinCount: c.MinCount,
			BatchSize: 1, Workers: 4, Seed: c.Seed,
		},
		Vocab: cur.Vocab, Sketches: cur.Sketches, Mats: cur.Mats,
	}
	loadedSk, err := LoadSketch(gobBytes(t, old))
	if err != nil {
		t.Fatal(err)
	}
	if loadedSk.cfg != scfg {
		t.Errorf("sketch config %+v, saved %+v", loadedSk.cfg, scfg)
	}
	sameLoaded(t, "sketch", sk, loadedSk, sk.ps, loadedSk.ps, exs)

	qcfg := DefaultSeq2SeqConfig()
	qcfg.EmbDim, qcfg.HidDim, qcfg.Epochs = 10, 12, 3
	sq := NewSeq2Seq(qcfg)
	sq.Train(exs)
	var curQ savedSeq2Seq
	roundTrip(t, sq.SaveFull, &curQ)
	q := curQ.Config
	oldQ := oldSavedSeq2Seq{
		Config: oldSeq2SeqConfig{
			EmbDim: q.EmbDim, HidDim: q.HidDim, LR: q.LR, Epochs: q.Epochs, SampleCap: q.SampleCap,
			MaxOutLen: q.MaxOutLen, GradClip: q.GradClip, MinCount: q.MinCount,
			BatchSize: 1, Workers: 4, Seed: q.Seed,
		},
		Vocab: curQ.Vocab, Mats: curQ.Mats,
	}
	loadedSq, err := LoadSeq2Seq(gobBytes(t, oldQ))
	if err != nil {
		t.Fatal(err)
	}
	if loadedSq.cfg != qcfg {
		t.Errorf("seq2seq config %+v, saved %+v", loadedSq.cfg, qcfg)
	}
	sameLoaded(t, "seq2seq", sq, loadedSq, sq.ps, loadedSq.ps, exs)
}

// roundTrip decodes what save writes into out.
func roundTrip(t *testing.T, save func(io.Writer) error, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// gobBytes gob-encodes v.
func gobBytes(t *testing.T, v any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// sameLoaded checks that a loaded model holds the saved model's weight
// bits and translates every example the same way.
func sameLoaded(t *testing.T, name string, saved, loaded Translator, sp, lp *neural.ParamSet, exs []Example) {
	t.Helper()
	sm, lm := sp.Mats(), lp.Mats()
	if len(sm) != len(lm) {
		t.Fatalf("%s: %d matrices loaded, %d saved", name, len(lm), len(sm))
	}
	for k := range sm {
		if len(sm[k].W) != len(lm[k].W) {
			t.Fatalf("%s: %s has %d weights loaded, %d saved", name, sp.Names()[k], len(lm[k].W), len(sm[k].W))
		}
		for i, w := range sm[k].W {
			if math.Float64bits(w) != math.Float64bits(lm[k].W[i]) {
				t.Fatalf("%s: %s[%d] = %v after load, saved %v", name, sp.Names()[k], i, lm[k].W[i], w)
			}
		}
	}
	for _, ex := range exs {
		if got, want := loaded.Translate(ex.NL, ex.Schema), saved.Translate(ex.NL, ex.Schema); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: loaded model translates %q to %q, saved model to %q", name, ex.NL, got, want)
		}
	}
}
