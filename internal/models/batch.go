package models

import (
	"context"
	"math/rand"

	"repro/internal/neural"
	"repro/internal/par"
)

// batchSizeOf normalizes a BatchSize knob (0 means the classic
// per-example regime).
func batchSizeOf(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// trainSchedule is the epoch/batch/step driver shared by both
// translators' TrainContext: it owns the shuffle-cap-batch loop,
// cooperative cancellation, the checkpoint cadence, and the resume
// offsets, while the model supplies a single accum callback that
// backpropagates one example.
//
// Determinism. A lane is a batch position, not a worker: lane i always
// holds exactly the gradients of the batch's i-th example, computed by
// the same sequential backprop code the single-core path runs, and
// lanes are merged in index order on the calling goroutine — so the
// floating-point result is bit-identical for every worker count, and
// batchSize==1 (lanes nil, accum targeting the main parameter set)
// reproduces the classic sequential SGD trajectory exactly.
//
// Resume. The checkpoint records (epoch, step): the snapshot was taken
// after `step` optimizer steps of `epoch`. A resumed schedule replays
// every earlier epoch's Shuffle call without training (the updates are
// already in the restored weights, but the RNG must advance past the
// same draws), then skips the first startStep batches of startEpoch —
// continuing the exact example order, and therefore the exact weight
// trajectory, of the interrupted run.
type trainSchedule struct {
	epochs    int
	sampleCap int
	batchSize int
	workers   int
	gradClip  float64
	rng       *rand.Rand
	main      *neural.ParamSet
	lanes     []*neural.ParamSet // nil when batchSize == 1
	opt       *neural.Adam

	startEpoch int // first epoch that actually trains
	startStep  int // optimizer steps to skip within startEpoch

	// checkpoint, when non-nil, snapshots the model after `step`
	// optimizer steps of `epoch`. It runs every checkpointEvery steps
	// (0 = never periodically) and once more when the context is
	// cancelled mid-run, so an interrupted run can resume from the
	// exact step it reached.
	checkpointEvery int
	checkpoint      func(epoch, step int) error

	// accum(lane, exIdx) backpropagates example exIdx: into shadow
	// lane `lane` when batching, or straight into main when
	// batchSize == 1 (lane is then always 0).
	accum func(lane, exIdx int)
}

// run drives the schedule over n examples. It returns nil when every
// epoch completed, the context's error when cancelled (after writing a
// final checkpoint if one is configured), or a checkpoint write error.
func (s *trainSchedule) run(ctx context.Context, n int) error {
	bs := batchSizeOf(s.batchSize)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	steps := 0 // optimizer steps taken by this run, for the cadence
	for epoch := 0; epoch < s.epochs; epoch++ {
		s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if epoch < s.startEpoch {
			continue // replayed for RNG position only
		}
		limit := len(order)
		if s.sampleCap > 0 && limit > s.sampleCap {
			limit = s.sampleCap
		}
		step, start := 0, 0
		if epoch == s.startEpoch && s.startStep > 0 {
			step = s.startStep
			start = s.startStep * bs
			if start > limit {
				start = limit
			}
		}
		for ; start < limit; start += bs {
			if err := ctx.Err(); err != nil {
				return s.interrupted(err, epoch, step)
			}
			end := start + bs
			if end > limit {
				end = limit
			}
			batch := order[start:end]
			if bs == 1 {
				s.accum(0, batch[0])
			} else {
				if err := par.MapCtx(ctx, s.workers, len(batch), func(i int) { s.accum(i, batch[i]) }); err != nil {
					// The partial batch's lane gradients are simply
					// abandoned: nothing was merged, so the weights
					// still reflect exactly `step` optimizer steps.
					return s.interrupted(err, epoch, step)
				}
				for i := range batch {
					s.main.MergeGradsFrom(s.lanes[i])
				}
			}
			s.opt.Step(s.main.ClipScale(s.gradClip))
			step++
			steps++
			if s.checkpoint != nil && s.checkpointEvery > 0 && steps%s.checkpointEvery == 0 {
				if err := s.checkpoint(epoch, step); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// interrupted writes a final checkpoint (when configured) before
// surfacing the cancellation error, so a SIGINT-style interruption
// never loses completed steps.
func (s *trainSchedule) interrupted(err error, epoch, step int) error {
	if s.checkpoint != nil {
		if cerr := s.checkpoint(epoch, step); cerr != nil {
			return cerr
		}
	}
	return err
}
