package fault_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/pipeline"
	"repro/internal/runtime"
)

// waitForGoroutines retries until the goroutine count drops to the
// baseline (goroutines of earlier work may still be exiting), failing with a full stack dump if it never does — the
// stdlib-only goleak check.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if goruntime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", goruntime.NumGoroutine(), baseline, buf[:n])
}

func makePairs(n int) []pipeline.Pair {
	out := make([]pipeline.Pair, n)
	for i := range out {
		out[i] = pipeline.Pair{
			NL:     fmt.Sprintf("question %d", i),
			SQL:    fmt.Sprintf("SELECT c%d FROM t", i),
			Stage:  "generate",
			Origin: "template",
		}
	}
	return out
}

// Tier 1+4: an injected stage panic surfaces as a typed *StageError
// (never a crash), the delivered pairs are the exact prefix before the
// fault, and no goroutines are left behind.
func TestInjectedStagePanicBecomesStageError(t *testing.T) {
	const n = 60
	inj := fault.NewInjector(7, 10)
	k := 0
	for k < n && !inj.Fires(k) {
		k++
	}
	if k >= n-1 {
		t.Fatalf("injector never fires usefully in [0,%d): k=%d", n, k)
	}
	baseline := goruntime.NumGoroutine()

	pairs := makePairs(n)
	g := pipeline.New(
		pipeline.Source("src", func(emit func(pipeline.Pair)) {
			for _, p := range pairs {
				emit(p)
			}
		}),
		fault.Stage(pipeline.FuncWithCounters("xform", func(p pipeline.Pair, emit func(pipeline.Pair)) { emit(p) }, nil),
			fault.NewInjector(7, 10), fault.Panic, 0),
	)
	var got []pipeline.Pair
	err := g.Run(context.Background(), func(p pipeline.Pair) error {
		got = append(got, p)
		return nil
	})
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *pipeline.StageError", err)
	}
	if se.Stage != "xform+fault" {
		t.Errorf("StageError.Stage = %q", se.Stage)
	}
	if se.Index != int64(k) {
		t.Errorf("StageError.Index = %d, want %d", se.Index, k)
	}
	if !strings.Contains(fmt.Sprint(se.Recovered), "injected panic") {
		t.Errorf("Recovered = %v", se.Recovered)
	}
	if len(got) != k {
		t.Errorf("delivered %d pairs before the fault, want %d", len(got), k)
	}
	for i := range got {
		if got[i] != pairs[i] {
			t.Fatalf("delivered pairs are not the canonical prefix at %d: %+v", i, got[i])
		}
	}
	if k > 0 && (se.Last == nil || se.Last.NL != got[k-1].NL) {
		t.Errorf("StageError.Last = %+v", se.Last)
	}
	waitForGoroutines(t, baseline)
}

func tinyExamples() []models.Example {
	schemaToks := []string{
		"patients", "name", "age", "diagnosis",
		"patients.name", "patients.age", "patients.diagnosis",
		"@PATIENTS.NAME", "@PATIENTS.AGE", "@PATIENTS.DIAGNOSIS", "@JOIN",
	}
	mk := func(nl, sql string) models.Example {
		return models.Example{NL: strings.Fields(nl), SQL: strings.Fields(sql), Schema: schemaToks}
	}
	return []models.Example{
		mk("show the name of all patient", "SELECT name FROM patients"),
		mk("count all patient", "SELECT COUNT ( * ) FROM patients"),
		mk("show the age of all patient", "SELECT age FROM patients"),
		mk("show patient with age @PATIENTS.AGE", "SELECT name FROM patients WHERE age = @PATIENTS.AGE"),
		mk("show patient with diagnosis @PATIENTS.DIAGNOSIS", "SELECT name FROM patients WHERE diagnosis = @PATIENTS.DIAGNOSIS"),
		mk("what be the average age of patient", "SELECT AVG ( age ) FROM patients"),
		mk("list the diagnosis of all patient", "SELECT diagnosis FROM patients"),
		mk("how many patient have diagnosis @PATIENTS.DIAGNOSIS", "SELECT COUNT ( * ) FROM patients WHERE diagnosis = @PATIENTS.DIAGNOSIS"),
	}
}

// Tier 2: kill seq2seq training at a periodic checkpoint boundary
// (mid-epoch), resume from the checkpoint after a disk round-trip,
// and require the final model to be byte-identical to an
// uninterrupted run.
func TestKillAndResumeSeq2SeqByteIdentical(t *testing.T) {
	cfg := models.Seq2SeqConfig{
		EmbDim: 6, HidDim: 8, LR: 0.01, Epochs: 4, MaxOutLen: 8,
		GradClip: 5, MinCount: 1, Seed: 3,
	}
	exs := tinyExamples()

	uninterrupted := models.NewSeq2Seq(cfg)
	uninterrupted.Train(exs)
	var want bytes.Buffer
	if err := uninterrupted.SaveFull(&want); err != nil {
		t.Fatal(err)
	}

	// Kill at the first periodic checkpoint: 5 steps into epoch 0 (8
	// steps per epoch, one per example), i.e. mid-epoch.
	ckPath := filepath.Join(t.TempDir(), "train.ck")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	interrupted := models.NewSeq2Seq(cfg)
	err := interrupted.TrainContext(ctx, exs, models.TrainOptions{
		CheckpointEvery: 5,
		CheckpointPath:  ckPath,
		OnCheckpoint: func(c *models.Checkpoint) {
			if !fired {
				fired = true
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted training returned %v, want context.Canceled", err)
	}

	ck, err := models.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Kind != "seq2seq" || ck.Epoch != 0 || ck.Step != 5 {
		t.Fatalf("checkpoint position = %q epoch %d step %d, want seq2seq 0/5", ck.Kind, ck.Epoch, ck.Step)
	}

	resumed := models.NewSeq2Seq(cfg)
	if err := resumed.TrainContext(context.Background(), exs, models.TrainOptions{Resume: ck}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := resumed.SaveFull(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("resumed model differs from uninterrupted model")
	}
}

// Tier 2, sketch model: killed at a mid-epoch checkpoint, it resumes
// from that checkpoint bit-identically too.
func TestKillAndResumeSketchByteIdentical(t *testing.T) {
	cfg := models.SketchConfig{
		EmbDim: 6, HidDim: 8, LR: 0.01, Epochs: 4, MaxSlots: 6,
		GradClip: 5, MinCount: 1, Seed: 5,
	}
	exs := tinyExamples()

	uninterrupted := models.NewSketch(cfg)
	uninterrupted.Train(exs)
	var want bytes.Buffer
	if err := uninterrupted.SaveFull(&want); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *models.Checkpoint
	interrupted := models.NewSketch(cfg)
	err := interrupted.TrainContext(ctx, exs, models.TrainOptions{
		CheckpointEvery: 3, // 8 steps per epoch: lands mid-epoch
		OnCheckpoint: func(c *models.Checkpoint) {
			if last == nil {
				cancel()
			}
			last = c
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted training returned %v, want context.Canceled", err)
	}
	if last == nil {
		t.Fatal("no checkpoint observed")
	}
	if last.Kind != "sketch" || last.Epoch != 0 || last.Step != 3 {
		t.Fatalf("checkpoint position = %q epoch %d step %d, want sketch 0/3", last.Kind, last.Epoch, last.Step)
	}

	resumed := models.NewSketch(cfg)
	if err := resumed.TrainContext(context.Background(), exs, models.TrainOptions{Resume: last}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := resumed.SaveFull(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("resumed model differs from uninterrupted model")
	}
}

// Tier 2, write path: a failed (truncated) checkpoint write must leave
// the previous checkpoint intact and no temp debris behind.
func TestAtomicCheckpointWriteSurvivesTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ck")
	if err := models.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good checkpoint"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	inj := fault.NewInjector(1, 1) // fires on every write call
	err := models.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := fault.NewWriter(w, inj, fault.Truncate).Write([]byte("replacement that tears"))
		return werr
	})
	if err == nil || !strings.Contains(err.Error(), "truncated write") {
		t.Fatalf("torn write not surfaced: %v", err)
	}

	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "good checkpoint" {
		t.Fatalf("previous checkpoint damaged: %q, %v", got, rerr)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		t.Fatalf("temp debris left behind: %v", entries)
	}
}

// trainedNN returns a nearest-neighbor tier trained on runtime-shaped
// examples (lemmatized NL, parsable SQL tokens).
func trainedNN() *models.NearestNeighbor {
	nn := models.NewNearestNeighbor()
	nn.Train([]models.Example{
		{NL: strings.Fields("show the name of all patient"), SQL: strings.Fields("SELECT name FROM patients")},
		{NL: strings.Fields("count all patient"), SQL: strings.Fields("SELECT COUNT ( * ) FROM patients")},
	})
	return nn
}

// Tier 3: an injected always-failing primary model is answered by the
// fallback tier, and the trace records both the tier that answered
// and why the primary failed.
func TestInjectedPrimaryFailureFallsThrough(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	nn := trainedNN()
	primary := fault.NewTranslator(trainedNN(), fault.NewInjector(1, 1), fault.Error, 0)

	tr := runtime.NewTranslator(db, primary)
	tr.Fallbacks = []models.Translator{nn}

	q, trace, err := tr.Translate(context.Background(), "show the names of all patients")
	if err != nil {
		t.Fatalf("fallback chain failed: %v\n%s", err, trace)
	}
	if trace.Tier != nn.Name() {
		t.Fatalf("Trace.Tier = %q, want %q", trace.Tier, nn.Name())
	}
	if len(trace.TierErrors) != 1 || !strings.Contains(trace.TierErrors[0], primary.Name()) {
		t.Fatalf("Trace.TierErrors = %v", trace.TierErrors)
	}
	if q == nil || !strings.Contains(q.String(), "SELECT") {
		t.Fatalf("fallback produced %v", q)
	}
	if _, eerr := db.Execute(q); eerr != nil {
		t.Fatalf("fallback SQL does not execute: %v", eerr)
	}
}

// Tier 3: a panicking primary is contained the same way.
func TestInjectedPrimaryPanicIsContained(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	primary := fault.NewTranslator(trainedNN(), fault.NewInjector(1, 1), fault.Panic, 0)
	tr := runtime.NewTranslator(db, primary)
	tr.Fallbacks = []models.Translator{trainedNN()}

	_, trace, err := tr.Translate(context.Background(), "show the names of all patients")
	if err != nil {
		t.Fatalf("panicking primary took the chain down: %v", err)
	}
	if len(trace.TierErrors) != 1 || !strings.Contains(trace.TierErrors[0], "panicked") {
		t.Fatalf("Trace.TierErrors = %v", trace.TierErrors)
	}
}

// Tier 3: a primary slower than the per-question deadline is
// abandoned and the fallback answers.
func TestDeadlineAbandonsSlowPrimary(t *testing.T) {
	db, err := patients.Database()
	if err != nil {
		t.Fatal(err)
	}
	primary := fault.NewTranslator(trainedNN(), fault.NewInjector(1, 1), fault.Delay, 300*time.Millisecond)
	tr := runtime.NewTranslator(db, primary)
	tr.Deadline = 20 * time.Millisecond
	tr.Fallbacks = []models.Translator{trainedNN()}

	_, trace, err := tr.Translate(context.Background(), "show the names of all patients")
	if err != nil {
		t.Fatalf("slow primary took the chain down: %v", err)
	}
	if trace.Tier != "template-nn" {
		t.Fatalf("Trace.Tier = %q", trace.Tier)
	}
	if len(trace.TierErrors) != 1 || !strings.Contains(trace.TierErrors[0], "deadline") {
		t.Fatalf("Trace.TierErrors = %v", trace.TierErrors)
	}
}

// The injector itself: firing is a pure function of (seed, index).
func TestInjectorDeterminism(t *testing.T) {
	a, b := fault.NewInjector(42, 7), fault.NewInjector(42, 7)
	fires := 0
	for i := 0; i < 1000; i++ {
		if a.Fires(i) != b.Fires(i) {
			t.Fatalf("injector not deterministic at %d", i)
		}
		if a.Fires(i) {
			fires++
		}
	}
	if fires == 0 || fires == 1000 {
		t.Fatalf("oneIn=7 fired %d/1000 times", fires)
	}
	var disarmed *fault.Injector
	if disarmed.Fires(0) || fault.NewInjector(1, 0).Fires(0) {
		t.Fatal("disarmed injectors must never fire")
	}
}
