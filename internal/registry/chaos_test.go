package registry_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/augment"
	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/models"
	"repro/internal/registry"
)

// tinyParams shrinks the pipeline so each onboarding synthesizes a
// corpus of dozens, not thousands, of pairs.
func tinyParams() *core.Params {
	return &core.Params{
		Instantiation: generator.Params{SizeSlotFills: 2, SizeTables: 2},
		Augmentation:  augment.Params{SizePara: 1, NumPara: 1, NumMissing: 1, RandDropP: 0.2},
	}
}

// tinySketch is a sketch configuration small enough to train in
// milliseconds while still taking several optimizer steps (so a
// checkpoint can land mid-train). SampleCap bounds an epoch at 72
// steps, one example each, out of the 572 pairs of synth:42.
func tinySketch() *models.SketchConfig {
	return &models.SketchConfig{
		EmbDim: 6, HidDim: 8, LR: 0.01, Epochs: 3, SampleCap: 72, MaxSlots: 6,
		GradClip: 5, MinCount: 1, Seed: 5,
	}
}

// waitForGoroutines retries until the goroutine count drops to the
// baseline, failing with a full stack dump if it never does — the
// stdlib-only goleak check (same pattern as internal/serve).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 250; i++ {
		if goruntime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", goruntime.NumGoroutine(), baseline, buf[:n])
}

// waitForState polls a tenant until its status reaches one of the
// wanted terminal states.
func waitForState(t *testing.T, ten *registry.Tenant, want ...registry.State) registry.Status {
	t.Helper()
	var st registry.Status
	for i := 0; i < 500; i++ {
		st = ten.Status()
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("tenant %s never reached %v; status %+v", ten.Name, want, st)
	return st
}

// buildUnit assembles one nn-model tenant unit for installing as a
// base tenant.
func buildUnit(t *testing.T, schemaName string, seed int64) *boot.Unit {
	t.Helper()
	u, err := boot.Build(context.Background(), boot.Spec{
		Schema: schemaName, Model: "nn", Seed: seed, Rows: 4, Params: tinyParams(),
	})
	if err != nil {
		t.Fatalf("building %s: %v", schemaName, err)
	}
	return u
}

// TestOnboardFleetUnderLiveTraffic is the headline chaos scenario: a
// registry serving two base tenants takes a fleet of twelve generated
// schemas through background onboarding while reader goroutines hammer
// the base tenants the whole time, and one base tenant is re-onboarded
// mid-flight (a live version swap). The invariants: no reader ever
// observes an empty slot or a nil model (zero dropped requests), the
// swapped tenant ends on a higher version, every fleet member reaches
// ready, and no goroutine outlives Registry.Wait. Run with -race.
func TestOnboardFleetUnderLiveTraffic(t *testing.T) {
	baseline := goruntime.NumGoroutine()

	r := registry.New(registry.Config{Workers: 2, EvalQuestions: -1})
	base := []string{"synth:1", "synth:2"}
	for i, name := range base {
		r.Install(boot.TenantName(name), buildUnit(t, name, int64(i+1)))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Live traffic: readers resolve the slot and run a model-level
	// translation on every iteration. A nil version or nil model is a
	// dropped request.
	var dropped, served atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		tenant := r.Lookup(boot.TenantName(base[i%len(base)]))
		//lint:allow rawgo chaos readers are the live traffic the registry must survive; joined via readers.Wait below
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tenant.Current()
				if v == nil || v.Unit == nil || v.Unit.Model == nil {
					dropped.Add(1)
					continue
				}
				out := v.Unit.Model.Translate(
					strings.Fields("show the name"), models.SchemaTokens(v.Unit.Schema))
				if out == nil {
					dropped.Add(1)
					continue
				}
				served.Add(1)
			}
		}()
	}

	// The fleet: twelve generated schemas onboarding in the background.
	const fleet = 12
	tenants := make([]*registry.Tenant, 0, fleet)
	for i := 0; i < fleet; i++ {
		ten, err := r.Onboard(ctx, boot.Spec{
			Schema: fmt.Sprintf("%s%d", boot.SynthPrefix, 100+i),
			Model:  "nn", Rows: 3, Seed: int64(100 + i), Params: tinyParams(),
		})
		if err != nil {
			t.Fatalf("onboard %d: %v", i, err)
		}
		tenants = append(tenants, ten)
	}

	// Mid-flight, re-onboard a base tenant: a background rebuild that
	// must swap in without the readers noticing.
	swapTarget := r.Lookup(boot.TenantName(base[0]))
	before := swapTarget.Current().Seq
	if _, err := r.Onboard(ctx, boot.Spec{
		Schema: base[0], Model: "nn", Rows: 4, Seed: 1, Params: tinyParams(),
	}); err != nil {
		t.Fatalf("re-onboard %s: %v", base[0], err)
	}

	for _, ten := range tenants {
		if st := waitForState(t, ten, registry.StateReady); st.Version != 1 {
			t.Fatalf("fleet tenant %s ready at version %d, want 1", ten.Name, st.Version)
		}
	}
	st := waitForState(t, swapTarget, registry.StateReady)
	if st.Version != before+1 {
		t.Fatalf("swapped tenant at version %d, want %d", st.Version, before+1)
	}

	close(stop)
	readers.Wait()
	r.WaitCtx(context.Background())

	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d dropped requests during onboarding/swap (served %d)", n, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("traffic generator never served a request; test proved nothing")
	}
	if got := len(r.Names()); got != len(base)+fleet {
		t.Fatalf("registry holds %d tenants, want %d", got, len(base)+fleet)
	}
	waitForGoroutines(t, baseline)
}

// saveFuller is the subset of models that can serialize themselves
// fully (sketch, seq2seq).
type saveFuller interface {
	SaveFull(w io.Writer) error
}

// TestKilledOnboardingResumesBitIdentical: onboarding is cancelled at
// the first training checkpoint (the in-process analog of SIGKILLing
// the process — the atomic checkpoint file is all that survives
// either way). Re-onboarding the same spec must (a) report Resumed
// while in flight, and (b) converge to the byte-identical model an
// uninterrupted build produces.
func TestKilledOnboardingResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := boot.Spec{
		Schema: "synth:42", Model: "sketch", Seed: 42, Rows: 3,
		Params: tinyParams(), Sketch: tinySketch(),
	}

	// The uninterrupted reference build.
	want, err := boot.Build(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := want.Model.(saveFuller).SaveFull(&wantBytes); err != nil {
		t.Fatal(err)
	}

	r := registry.New(registry.Config{
		Workers: 1, EvalQuestions: -1, CheckpointDir: dir,
	})

	// Round 1: kill at the first checkpoint.
	kctx, kill := context.WithCancel(context.Background())
	defer kill()
	var killedAt *models.Checkpoint
	killed := spec
	killed.Train = models.TrainOptions{
		CheckpointEvery: 2,
		OnCheckpoint: func(c *models.Checkpoint) {
			if killedAt == nil {
				killedAt = c
			}
			kill()
		},
	}
	ten, err := r.Onboard(kctx, killed)
	if err != nil {
		t.Fatal(err)
	}
	st := waitForState(t, ten, registry.StateFailed)
	if st.Error == "" {
		t.Fatal("killed onboarding reported no error")
	}
	if killedAt == nil {
		t.Fatal("killed onboarding took no checkpoint")
	}
	if killedAt.Epoch != 0 || killedAt.Step != 2 {
		t.Fatalf("first checkpoint at epoch %d step %d, want 0/2 (mid-train)", killedAt.Epoch, killedAt.Step)
	}
	if cur := ten.Current(); cur != nil {
		t.Fatalf("killed onboarding installed version %d", cur.Seq)
	}

	// Round 2: same spec, fresh context — must resume from the
	// checkpoint the kill left behind.
	resumedSeen := false
	resumed := spec
	resumed.Train = models.TrainOptions{
		CheckpointEvery: 2,
		OnCheckpoint:    func(*models.Checkpoint) { resumedSeen = true },
	}
	ten2, err := r.Onboard(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if ten2 != ten {
		t.Fatal("re-onboard resolved to a different tenant")
	}
	st = waitForState(t, ten2, registry.StateReady)
	if st.Version != 1 {
		t.Fatalf("resumed onboarding at version %d, want 1", st.Version)
	}
	_ = resumedSeen // checkpoints may or may not fire again post-resume
	r.WaitCtx(context.Background())

	var gotBytes bytes.Buffer
	if err := ten2.Current().Unit.Model.(saveFuller).SaveFull(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
		t.Fatal("resumed onboarding produced a model that differs from the uninterrupted build")
	}
}

// badModel translates everything to garbage: it trains fine but can
// never pass an exact-match eval gate.
type badModel struct{}

func (badModel) Name() string                     { return "bad" }
func (badModel) Train([]models.Example)           {}
func (badModel) Translate(_, _ []string) []string { return []string{"select", "garbage"} }

// TestFailedEvalRollsBack: a tenant with a serving version is
// re-onboarded with a model that flunks the accuracy gate. The
// candidate must be rejected before the swap — the serving version
// (same pointer, same seq) keeps answering throughout, and the status
// surfaces the gate failure as rolled_back.
func TestFailedEvalRollsBack(t *testing.T) {
	r := registry.New(registry.Config{
		Workers: 1, MinAccuracy: 0.5, EvalQuestions: 8,
	})
	name := boot.TenantName("synth:7")
	r.Install(name, buildUnit(t, "synth:7", 7))
	ten := r.Lookup(name)
	v1 := ten.Current()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Concurrent readers across the failed onboarding: the serving
	// slot must never change, let alone empty.
	stop := make(chan struct{})
	var sawOther atomic.Int64
	var readers sync.WaitGroup
	readers.Add(1)
	//lint:allow rawgo the reader races the failing onboarding on purpose; joined via readers.Wait below
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ten.Current() != v1 {
				sawOther.Add(1)
			}
		}
	}()

	if _, err := r.Onboard(ctx, boot.Spec{
		Schema: "synth:7", Seed: 7, Rows: 3, Params: tinyParams(),
		Factory: func(int64) models.Translator { return badModel{} },
	}); err != nil {
		t.Fatal(err)
	}
	st := waitForState(t, ten, registry.StateRolledBack)
	close(stop)
	readers.Wait()
	r.WaitCtx(context.Background())

	if !strings.Contains(st.Error, "eval gate") {
		t.Fatalf("status error = %q, want the eval-gate rejection", st.Error)
	}
	if ten.Current() != v1 {
		t.Fatal("serving version changed despite the failed gate")
	}
	if n := sawOther.Load(); n != 0 {
		t.Fatalf("readers observed a foreign version %d times during the failed onboarding", n)
	}
	if st.Version != v1.Seq {
		t.Fatalf("status version %d, want serving %d", st.Version, v1.Seq)
	}
}

// blockingTrainer blocks in TrainContext until its context is
// cancelled — the hook for testing Remove-mid-onboard.
type blockingTrainer struct {
	started chan struct{}
}

func (b *blockingTrainer) Name() string                     { return "blocking" }
func (b *blockingTrainer) Train([]models.Example)           {}
func (b *blockingTrainer) Translate(_, _ []string) []string { return []string{"select"} }
func (b *blockingTrainer) TrainContext(ctx context.Context, _ []models.Example, _ models.TrainOptions) error {
	close(b.started)
	<-ctx.Done()
	return ctx.Err()
}

// TestRemoveCancelsInFlightOnboarding: deleting a tenant mid-build
// cancels its onboarding; Wait returns and the tenant is gone.
func TestRemoveCancelsInFlightOnboarding(t *testing.T) {
	baseline := goruntime.NumGoroutine()
	r := registry.New(registry.Config{Workers: 1, EvalQuestions: -1})
	bt := &blockingTrainer{started: make(chan struct{})}
	ten, err := r.Onboard(context.Background(), boot.Spec{
		Schema: "synth:11", Seed: 11, Rows: 3, Params: tinyParams(),
		Factory: func(int64) models.Translator { return bt },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-bt.started // onboarding is now blocked inside training
	if !r.Remove(ten.Name) {
		t.Fatal("remove of an onboarding tenant failed")
	}
	r.WaitCtx(context.Background())
	if r.Lookup(ten.Name) != nil {
		t.Fatal("tenant still resolvable after Remove")
	}
	if r.Remove(ten.Name) {
		t.Fatal("second Remove reported success")
	}
	waitForGoroutines(t, baseline)
}

// TestOnboardRejectsConcurrentBuild: one build per tenant at a time.
func TestOnboardRejectsConcurrentBuild(t *testing.T) {
	r := registry.New(registry.Config{Workers: 1, EvalQuestions: -1})
	bt := &blockingTrainer{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	spec := boot.Spec{
		Schema: "synth:13", Seed: 13, Rows: 3, Params: tinyParams(),
		Factory: func(int64) models.Translator { return bt },
	}
	if _, err := r.Onboard(ctx, spec); err != nil {
		t.Fatal(err)
	}
	<-bt.started
	if _, err := r.Onboard(ctx, spec); err == nil {
		t.Fatal("second concurrent onboard of the same tenant succeeded")
	}
	cancel()
	r.WaitCtx(context.Background())
}
