package models

import (
	"testing"

	"repro/internal/neural"
)

// trainStepWarmup is how many steps a benchmark takes before timing,
// so the optimizer's moments are as live as they are mid-epoch rather
// than all zero, and the training scratch has grown to the corpus's
// long examples.
const trainStepWarmup = 200

// newTrainStep returns one per-example optimizer step (backprop, clip
// scale, Adam) of the given model at the default sizes over the
// Patients corpus, the unit of work dbpal-train repeats SampleCap
// times per epoch, after trainStepWarmup steps. Step i trains on a
// scattered example.
func newTrainStep(kind string) func(i int) {
	exs := patientsExamples()
	var (
		accum func(ex int)
		ps    *neural.ParamSet
		lr    float64
		clip  float64
	)
	switch kind {
	case "sketch":
		cfg := DefaultSketchConfig()
		cfg.Epochs, cfg.SampleCap = 1, 1 // builds vocabulary, sketches, params
		m := NewSketch(cfg)
		m.Train(exs)
		inv := m.inventory(exs)
		accum, ps, lr, clip = func(i int) { m.step(exs[i], inv[i]) }, m.ps, cfg.LR, cfg.GradClip
	default:
		cfg := DefaultSeq2SeqConfig()
		cfg.Epochs, cfg.SampleCap = 1, 1
		m := NewSeq2Seq(cfg)
		m.Train(exs)
		accum, ps, lr, clip = func(i int) { m.backprop(exs[i]) }, m.ps, cfg.LR, cfg.GradClip
	}
	opt := neural.NewAdam(ps, lr)
	step := func(i int) {
		accum((i * 7919) % len(exs))
		opt.Step(ps.ClipScale(clip))
	}
	for i := 0; i < trainStepWarmup; i++ {
		step(i)
	}
	return func(i int) { step(trainStepWarmup + i) }
}

// BenchmarkTrainStep times one optimizer step per model:
//
//	go test -run '^$' -bench BenchmarkTrainStep -benchmem ./internal/models/
func BenchmarkTrainStep(b *testing.B) {
	for _, kind := range []string{"sketch", "seq2seq"} {
		b.Run(kind, func(b *testing.B) {
			step := newTrainStep(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// Allocation ceilings for one training step. Both models backprop
// through GRU workspaces and step scratch that persist across
// examples, and the sketch model takes its sketch and gold slots from
// the inventory pass, so a step allocates only where the sketch model
// lemmatizes the question for its linking features. Measured (also
// under -race): 2 for the sketch model, which took 359 with per-step
// buffers, and 0 for seq2seq, which took 1,127. Each ceiling is the
// measured count.
const (
	sketchTrainStepAllocsMax  = 2
	seq2seqTrainStepAllocsMax = 0
)

// TestTrainStepAllocs pins the allocations of one training step of
// each model, as TestTranslateAllocs pins a decode's.
func TestTrainStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	for _, c := range []struct {
		kind string
		max  int
	}{{"sketch", sketchTrainStepAllocsMax}, {"seq2seq", seq2seqTrainStepAllocsMax}} {
		step, i := newTrainStep(c.kind), 0
		allocs := testing.AllocsPerRun(100, func() { step(i); i++ })
		t.Logf("allocs per %s training step: %.0f", c.kind, allocs)
		if allocs > float64(c.max) {
			t.Errorf("a %s training step allocates %.0f times, ceiling %d", c.kind, allocs, c.max)
		}
	}
}
