package eval

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/critic"
	"repro/internal/engine"
	"repro/internal/lemma"
	"repro/internal/models"
	"repro/internal/neural"
	"repro/internal/patients"
	"repro/internal/runtime"
	"repro/internal/spider"
	"repro/internal/sqlast"
	"repro/internal/tokens"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

const answersGolden = "testdata/answers_golden.txt"

// TestAnswersGolden pins the end-to-end answers — final SQL and the
// rows it executes to — over spider.Workload × {patients, flights} ×
// {sketch, seq2seq} × critic {off, on} × beam {1, 3}, plus the
// Patients benchmark through the full runtime at boot.CriticBeam.
// Decoding, finalization, the critic and the engine all sit under it,
// so a change to any of them that is meant to be a pure speed-up must
// leave this file byte-identical. Critic verdicts are recorded on their own
// lines: a verdict may legitimately change when the dry-run's row
// budget stops tripping, and the diff then shows which.
//
// It runs on both of the neural package's dispatches ("avx2" and
// "generic"): the AVX2 kernels must give the scalar loops' answers.
//
// Regenerate with: go test ./internal/eval -run TestAnswersGolden -update
func TestAnswersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four small models")
	}
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
			checkAnswersGolden(t, answersText(t))
		})
	}
}

// answersText renders every answer TestAnswersGolden pins.
func answersText(t *testing.T) string {
	var b strings.Builder
	for _, name := range []string{"patients", "flights"} {
		s, db, err := boot.ResolveSchema(name, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []core.Pair
		if err := core.New(s, core.DefaultParams(), 1).Graph().Run(context.Background(), func(p core.Pair) error {
			pairs = append(pairs, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		exs := models.PairExamples(pairs, s)
		skCfg := models.DefaultSketchConfig()
		skCfg.Epochs, skCfg.SampleCap = 1, 600
		sk := models.NewSketch(skCfg)
		sk.Train(exs)
		s2Cfg := models.DefaultSeq2SeqConfig()
		s2Cfg.Epochs, s2Cfg.SampleCap, s2Cfg.EmbDim, s2Cfg.HidDim = 1, 300, 16, 32
		s2 := models.NewSeq2Seq(s2Cfg)
		s2.Train(exs)

		if name == "patients" {
			// The 399 Patients-benchmark questions through the full
			// runtime (parameter handler included) on the served model
			// shape: sketch, critic on, boot's beam.
			tr := runtime.NewTranslator(db, sk)
			tr.Critic = critic.New(db, critic.Config{Seed: 1, Timeout: time.Minute})
			tr.Beam = boot.CriticBeam
			for _, c := range patients.Cases() {
				fmt.Fprintf(&b, "patients-bench %s ", c.ID)
				fq, trace, err := tr.Translate(context.Background(), c.NL)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				fmt.Fprintf(&b, "%s => %s\n  verdicts %s\n", fq, resultDigest(db.Execute(fq)), strings.Join(trace.CriticVerdicts, " | "))
			}
		}

		qs := spider.Workload(s, 40, 1+7919)
		for _, m := range []models.Translator{sk, s2} {
			for _, withCritic := range []bool{false, true} {
				for _, beam := range []int{1, 3} {
					tr := runtime.NewTranslator(db, m)
					tr.Beam = beam
					if withCritic {
						// A generous dry-run deadline keeps verdicts a
						// function of the row budget alone.
						tr.Critic = critic.New(db, critic.Config{Seed: 1, Timeout: time.Minute})
					}
					for i, q := range qs {
						nl := lemma.LemmatizeAll(tokens.Tokenize(q.NL))
						bindings := criticBindings(sqlast.MustParse(q.SQL), db)
						trace := &runtime.Trace{}
						fq, _, err := tr.TranslatePrepared(context.Background(), nl, bindings, trace)
						fmt.Fprintf(&b, "%s %s critic=%v beam=%d q%02d ", name, m.Name(), withCritic, beam, i)
						if err != nil {
							fmt.Fprintf(&b, "error: %v\n", err)
							continue
						}
						fmt.Fprintf(&b, "%s => %s\n", fq, resultDigest(db.Execute(fq)))
						if withCritic {
							fmt.Fprintf(&b, "  verdicts %s\n", strings.Join(trace.CriticVerdicts, " | "))
						}
					}
				}
			}
		}
	}
	return b.String()
}

// checkAnswersGolden compares got with the golden file line by line,
// or rewrites the file under -update.
func checkAnswersGolden(t *testing.T, got string) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}

// resultDigest renders an execution outcome compactly: the column and
// row counts and a hash of every rendered cell, or the error.
func resultDigest(res *engine.Result, err error) string {
	if err != nil {
		return "exec error: " + err.Error()
	}
	h := sha256.New()
	for _, c := range res.Columns {
		fmt.Fprintf(h, "%s\x1f", c)
	}
	for _, row := range res.Rows {
		h.Write([]byte{'\n'})
		for _, v := range row {
			fmt.Fprintf(h, "%s\x1f", v)
		}
	}
	return fmt.Sprintf("%d cols %d rows %x", len(res.Columns), len(res.Rows), h.Sum(nil)[:8])
}
