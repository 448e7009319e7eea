package models

import (
	"context"
	"math/rand"

	"repro/internal/neural"
)

// trainSchedule is the epoch/step driver shared by both translators'
// TrainContext: it owns the shuffle-cap-step loop, cooperative
// cancellation, the checkpoint cadence, and the resume offsets, while
// the model supplies a single accum callback that backpropagates one
// example. Every step is one example followed by one clipped Adam
// update: per-example SGD, the paper's training regime.
//
// Resume. The checkpoint records (epoch, step): the snapshot was taken
// after `step` examples of `epoch`. A resumed schedule replays every
// earlier epoch's Shuffle call without training (the updates are
// already in the restored weights, but the RNG must advance past the
// same draws), then skips the first startStep examples of startEpoch —
// continuing the exact example order, and therefore the exact weight
// trajectory, of the interrupted run.
type trainSchedule struct {
	epochs    int
	sampleCap int
	gradClip  float64
	rng       *rand.Rand
	main      *neural.ParamSet
	opt       *neural.Adam

	startEpoch int // first epoch that actually trains
	startStep  int // examples to skip within startEpoch

	// checkpoint, when non-nil, snapshots the model after `step`
	// examples of `epoch`. It runs every checkpointEvery steps (0 =
	// never periodically) and once more when the context is cancelled
	// mid-run, so an interrupted run can resume from the exact step it
	// reached.
	checkpointEvery int
	checkpoint      func(epoch, step int) error

	// accum(exIdx) backpropagates example exIdx into main's gradients.
	accum func(exIdx int)
}

// run drives the schedule over n examples. It returns nil when every
// epoch completed, the context's error when cancelled (after writing a
// final checkpoint if one is configured), or a checkpoint write error.
func (s *trainSchedule) run(ctx context.Context, n int) error {
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
		start := 0
		if epoch == s.startEpoch {
			start = s.startStep
		}
		for step := start; step < limit; step++ {
			if err := ctx.Err(); err != nil {
				return s.interrupted(err, epoch, step)
			}
			s.accum(order[step])
			s.opt.Step(s.main.ClipScale(s.gradClip))
			steps++
			if s.checkpoint != nil && s.checkpointEvery > 0 && steps%s.checkpointEvery == 0 {
				if err := s.checkpoint(epoch, step+1); err != nil {
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
