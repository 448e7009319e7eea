package models

import (
	"testing"

	"repro/internal/neural"
)

// trainStepWarmup is how many steps a benchmark takes before timing,
// so the optimizer's moments are as live as they are mid-epoch rather
// than all zero.
const trainStepWarmup = 200

// benchTrainSteps times one per-example optimizer step (backprop, clip,
// Adam) at the default model sizes over the Patients corpus: the unit
// of work dbpal-train repeats SampleCap times per epoch.
func benchTrainSteps(b *testing.B, accum func(Example), ps *neural.ParamSet, lr, clip float64) {
	exs := patientsExamples()
	opt := neural.NewAdam(ps, lr)
	step := func(i int) {
		accum(exs[(i*7919)%len(exs)])
		ps.ClipGrad(clip)
		opt.Step()
	}
	for i := 0; i < trainStepWarmup; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(trainStepWarmup + i)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	exs := patientsExamples()
	b.Run("sketch", func(b *testing.B) {
		cfg := DefaultSketchConfig()
		cfg.Epochs, cfg.SampleCap = 1, 1 // builds vocabulary, sketches, params
		m := NewSketch(cfg)
		m.Train(exs)
		benchTrainSteps(b, m.step, m.ps, cfg.LR, cfg.GradClip)
	})
	b.Run("seq2seq", func(b *testing.B) {
		cfg := DefaultSeq2SeqConfig()
		cfg.Epochs, cfg.SampleCap = 1, 1
		m := NewSeq2Seq(cfg)
		m.Train(exs)
		benchTrainSteps(b, func(ex Example) { m.backprop(ex) }, m.ps, cfg.LR, cfg.GradClip)
	})
}
