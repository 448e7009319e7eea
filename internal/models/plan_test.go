package models

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lemma"
	"repro/internal/neural"
	"repro/internal/patients"
	"repro/internal/spider"
)

// novelQuestions returns n seeded spider questions over the Patients
// schema in the form the runtime hands them to a model: anonymized
// (the generator's placeholders stand where bound values would be
// recognized) and lemmatized.
func novelQuestions(n int, seed int64) [][]string {
	var out [][]string
	for _, q := range spider.Workload(patients.Schema(), n, seed) {
		out = append(out, lemma.LemmatizeAll(strings.Fields(q.NL)))
	}
	return out
}

// patientsSketch is a sketch model trained for two epochs on a capped
// slice of the Patients corpus: enough for a full vocabulary and
// sketch inventory, quick to train.
var patientsSketch = sync.OnceValue(func() *Sketch {
	cfg := DefaultSketchConfig()
	cfg.Epochs, cfg.SampleCap = 2, 200
	m := NewSketch(cfg)
	m.Train(patientsExamples())
	return m
})

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// referenceTranslateK is Sketch.TranslateK with the encoder state taken
// from the training path's encodeNL, not from the decode plan.
func referenceTranslateK(m *Sketch, nl, schemaToks []string, k int) [][]string {
	ss := m.sets.get(schemaToks)
	enc := m.encodeNL(m.work(), nl)
	nlc := newNLContext(nl)
	var out [][]string
	var sc slotScratch
	for _, skID := range topK(m.clsW.Forward(enc, neural.NewVec(m.clsW.Out)), k) {
		out = append(out, m.fillSketch(m.sketches[skID], ss, enc, nlc, &sc))
	}
	return out
}

// TestDecodePlanMatchesDirect: decoding through the plan gives the
// encoder state and the top three translations that decoding from the
// training path's encoder gives, bit for bit, on seeded spider
// questions and on both of the neural package's dispatches.
func TestDecodePlanMatchesDirect(t *testing.T) {
	m := patientsSketch()
	if m.plan == nil {
		t.Fatal("a trained model has no decode plan")
	}
	st := SchemaTokens(patients.Schema())
	qs := append(novelQuestions(150, 41), nil, strings.Fields("zzz unknown words only"))
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
			for _, nl := range qs {
				if got, want := m.encodeInfer(nl), m.encodeNL(m.work(), nl); !sameBits(got, want) {
					t.Fatalf("%v: plan state %v, direct %v", nl, got, want)
				}
				if got, want := m.TranslateK(nl, st, 3), referenceTranslateK(m, nl, st, 3); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: plan decodes %v, direct %v", nl, got, want)
				}
			}
		})
	}
}

// TestDecodePlanDroppedByTraining: a model that trains again after
// decoding decodes afterwards like a fresh load of its new weights, so
// no plan outlives the weights it was derived from. The first run is
// cut at its first checkpoint and the second resumes from it.
func TestDecodePlanDroppedByTraining(t *testing.T) {
	cfg := DefaultSketchConfig()
	cfg.Epochs, cfg.SampleCap = 2, 60
	m := NewSketch(cfg)
	exs := patientsExamples()
	st := SchemaTokens(patients.Schema())
	qs := novelQuestions(40, 43)

	ctx, cancel := context.WithCancel(context.Background())
	var ck *Checkpoint
	err := m.TrainContext(ctx, exs, TrainOptions{CheckpointEvery: 30, OnCheckpoint: func(c *Checkpoint) {
		if ck == nil {
			ck = c
			cancel()
		}
	}})
	cancel()
	if !errors.Is(err, context.Canceled) || ck == nil {
		t.Fatalf("first run: err %v, checkpoint %v; want a cancelled run with a checkpoint", err, ck != nil)
	}
	check := func(stage string) {
		t.Helper()
		var buf bytes.Buffer
		if err := m.SaveFull(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := LoadSketch(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, nl := range qs {
			if got, want := m.encodeInfer(nl), fresh.encodeNL(fresh.work(), nl); !sameBits(got, want) {
				t.Fatalf("%s, %v: encoder state %v, fresh load %v", stage, nl, got, want)
			}
			if got, want := m.TranslateK(nl, st, 2), fresh.TranslateK(nl, st, 2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %v: decodes %v, fresh load %v", stage, nl, got, want)
			}
		}
	}
	check("after the cut")
	before := m.plan
	if err := m.TrainContext(context.Background(), exs, TrainOptions{Resume: ck}); err != nil {
		t.Fatal(err)
	}
	if m.plan == before {
		t.Fatal("resumed training kept the old plan")
	}
	check("after resuming")
}

// TestSeq2SeqPlansFollowWeights: the seq2seq model's plans have the
// sketch's lifecycle. A trained model, decoding from four goroutines at
// once, decodes like a fresh load of its weights, greedy and beam, and
// so does a model that trains again.
func TestSeq2SeqPlansFollowWeights(t *testing.T) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs, cfg.EmbDim, cfg.HidDim = 20, 16, 20
	m := NewSeq2Seq(cfg)
	exs := trainingExamples()
	st := exs[0].Schema
	qs := decodeQuestions()
	check := func(stage string) {
		t.Helper()
		if m.encPlan == nil || m.decPlan == nil {
			t.Fatalf("%s: a trained model has no decode plans", stage)
		}
		var buf bytes.Buffer
		if err := m.SaveFull(&buf); err != nil {
			t.Fatal(err)
		}
		fresh, err := LoadSeq2Seq(&buf)
		if err != nil {
			t.Fatal(err)
		}
		greedy, beams := make([][]string, len(qs)), make([][][]string, len(qs))
		for i, nl := range qs {
			greedy[i], beams[i] = referenceTranslate(fresh, nl, st), fresh.TranslateBeam(nl, st, 3)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, nl := range qs {
					if got := m.Translate(nl, st); !reflect.DeepEqual(got, greedy[i]) {
						t.Errorf("%s, %v: decodes %v, fresh load %v", stage, nl, got, greedy[i])
					}
					if got := m.TranslateBeam(nl, st, 3); !reflect.DeepEqual(got, beams[i]) {
						t.Errorf("%s, %v: beam %v, fresh load %v", stage, nl, got, beams[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	m.Train(exs)
	check("first training")
	before := m.decPlan
	m.Train(exs[:3])
	if m.decPlan == before {
		t.Fatal("training again kept the old plan")
	}
	check("second training")
}

// TestLoadedSketchRetrains: LoadSketch drops the gradient buffers of a
// model it loads for serving, and training that model again rebuilds
// its parameters, so it trains to the same weights as a fresh model.
func TestLoadedSketchRetrains(t *testing.T) {
	cfg := DefaultSketchConfig()
	cfg.Epochs, cfg.SampleCap = 1, 40
	exs := patientsExamples()
	var buf bytes.Buffer
	if err := patientsSketch().SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, mat := range loaded.ps.Mats() {
		if mat.G != nil {
			t.Fatalf("loaded %s keeps a gradient buffer", loaded.ps.Names()[i])
		}
	}
	loaded.cfg, loaded.rng = cfg, rand.New(rand.NewSource(cfg.Seed))
	loaded.Train(exs)
	fresh := NewSketch(cfg)
	fresh.Train(exs)
	if got, want := savedHash(t, loaded.SaveFull, &savedSketch{}, cfg), savedHash(t, fresh.SaveFull, &savedSketch{}, cfg); got != want {
		t.Fatalf("retrained loaded model hashes %s, fresh model %s", got, want)
	}
}

// TestTopKMatchesStableSort: topK returns the first k indices of a
// stable descending sort, ties included.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 40; n++ {
		v := make([]float64, rng.Intn(30))
		for i := range v {
			v[i] = float64(rng.Intn(6)) - 2 // many ties
			if rng.Intn(4) == 0 {
				v[i] = rng.NormFloat64()
			}
		}
		order := make([]int, len(v))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return v[order[i]] > v[order[j]] })
		for k := 0; k <= len(v)+1; k++ {
			if got, want := topK(v, k), order[:min(k, len(v))]; !slices.Equal(got, want) {
				t.Fatalf("topK(%v, %d) = %v, want %v", v, k, got, want)
			}
		}
	}
}

// BenchmarkSketchDecode splits a sketch decode into its layers over
// 64 fixed seeded spider questions on the Patients schema, cycled: the
// encoder pass (encode), the sketch classifier and its top-1 pick
// (classify), and filling the chosen sketch's slots with the question's
// linking context built (fill).
//
//	go test -run '^$' -bench BenchmarkSketchDecode ./internal/models/
func BenchmarkSketchDecode(b *testing.B) {
	m := patientsSketch()
	st := SchemaTokens(patients.Schema())
	ss := m.sets.get(st)
	qs := novelQuestions(64, 47)
	encs := make([][]float64, len(qs))
	tops := make([]int, len(qs))
	for i, nl := range qs {
		encs[i] = m.encodeInfer(nl)
		tops[i] = topK(m.clsW.Forward(encs[i], neural.NewVec(m.clsW.Out)), 1)[0]
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			m.encodeInfer(qs[n%len(qs)])
		}
	})
	b.Run("classify", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			topK(m.clsW.Forward(encs[n%len(qs)], neural.NewVec(m.clsW.Out)), 1)
		}
	})
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		var sc slotScratch
		for n := 0; n < b.N; n++ {
			i := n % len(qs)
			m.fillSketch(m.sketches[tops[i]], ss, encs[i], newNLContext(qs[i]), &sc)
		}
	})
}
