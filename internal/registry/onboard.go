package registry

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/boot"
	"repro/internal/eval"
	"repro/internal/models"
	"repro/internal/spider"
)

// Onboard starts building a version for the spec's tenant in the
// background and returns immediately; progress is visible through
// Status. A new tenant appears in pending state right away (lookups
// find it, but it serves nothing until the build passes the eval gate
// and swaps in). Re-onboarding an existing tenant builds a replacement
// version while the current one keeps serving. Cancelling ctx aborts
// the build; with CheckpointDir set, a mid-training abort leaves a
// checkpoint that the next Onboard of the same spec resumes from
// bit-identically.
func (r *Registry) Onboard(ctx context.Context, spec boot.Spec) (*Tenant, error) {
	spec = spec.WithDefaults()
	name := boot.TenantName(spec.Schema)
	if name == "" {
		return nil, fmt.Errorf("registry: onboard: empty schema name")
	}
	t := r.tenant(name)
	t.mu.Lock()
	if t.st.Onboarding {
		t.mu.Unlock()
		return t, fmt.Errorf("registry: tenant %q is already onboarding", name)
	}
	octx, cancel := context.WithCancel(ctx)
	t.st.Onboarding = true
	t.st.State = StatePending
	t.st.Error = ""
	t.cancel = cancel
	t.mu.Unlock()

	r.wg.Add(1)
	//lint:allow rawgo onboarding must run beside live serving; completion is published through the tenant's slot and status, and Registry.Wait joins the goroutine
	go r.onboard(octx, cancel, t, spec)
	return t, nil
}

// onboard is the background build worker behind Onboard.
func (r *Registry) onboard(ctx context.Context, cancel context.CancelFunc, t *Tenant, spec boot.Spec) {
	defer r.wg.Done()
	err := r.runOnboard(ctx, t, spec)
	cancel()
	t.mu.Lock()
	t.cancel = nil
	t.mu.Unlock()
	if err != nil {
		t.fail(err)
		r.logf("registry: onboard %s: %v", t.Name, err)
	}
}

// runOnboard executes the onboarding phases: resolve → generate →
// train (checkpointed, resumable) → evaluate → swap.
func (r *Registry) runOnboard(ctx context.Context, t *Tenant, spec boot.Spec) error {
	s, db, err := boot.ResolveSchema(spec.Schema, spec.Rows, spec.Seed)
	if err != nil {
		return err
	}

	t.enter(StateGenerating)
	pairs, err := boot.Pairs(ctx, s, spec.ParamsOrDefault(), spec.Seed)
	if err != nil {
		return err
	}
	exs := models.PairExamples(pairs, s)
	r.logf("registry: %s: synthesized %d NL-SQL pairs", t.Name, len(pairs))

	t.enter(StateTraining)
	m, err := boot.ModelFor(spec)
	if err != nil {
		return err
	}
	opts := spec.Train
	ckpath := ""
	if r.cfg.CheckpointDir != "" && spec.LoadPath == "" {
		ckpath = filepath.Join(r.cfg.CheckpointDir, t.Name+".ckpt")
		if opts.CheckpointPath == "" {
			opts.CheckpointPath = ckpath
		}
		if opts.CheckpointEvery == 0 {
			opts.CheckpointEvery = r.cfg.CheckpointEvery
		}
		if opts.Resume == nil {
			if ck, lerr := models.LoadCheckpoint(opts.CheckpointPath); lerr == nil && ck.Kind == m.Name() {
				opts.Resume = ck
				t.mu.Lock()
				t.st.Resumed = true
				t.mu.Unlock()
				r.logf("registry: %s: resuming training from checkpoint (epoch %d, step %d)",
					t.Name, ck.Epoch, ck.Step)
			}
		}
	}
	if err := boot.Train(ctx, m, exs, opts); err != nil {
		return err
	}

	acc := 0.0
	if r.cfg.EvalQuestions > 0 {
		t.enter(StateEvaluating)
		qs := spider.Workload(s, r.cfg.EvalQuestions, spec.Seed+1789)
		rep, err := eval.EvalSchemaCtx(ctx, m, s, qs)
		if err != nil {
			return err
		}
		acc = rep.Overall.Acc()
		if r.cfg.MinAccuracy > 0 && acc < r.cfg.MinAccuracy {
			return &EvalGateError{Accuracy: acc, Min: r.cfg.MinAccuracy}
		}
	}

	u := boot.Assemble(spec, s, db, m, len(pairs))
	v := r.newVersion(t, u, acc)
	t.install(v)
	if ckpath != "" {
		// The slot swapped; a stale checkpoint must not seed the next
		// onboarding of this tenant.
		if rmErr := os.Remove(ckpath); rmErr != nil && !os.IsNotExist(rmErr) {
			r.logf("registry: %s: removing checkpoint: %v", t.Name, rmErr)
		}
	}
	r.logf("registry: %s: version %d ready (eval accuracy %.3f)", t.Name, v.Seq, acc)
	return nil
}
