package models

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/neural"
)

// TrainOptions configures fault tolerance for TrainContext. The zero
// value trains exactly like Train: no checkpoints, no resume.
type TrainOptions struct {
	// CheckpointEvery is the number of examples (optimizer steps) between
	// periodic checkpoints (0 disables the periodic cadence; a final
	// checkpoint is still written on cancellation when CheckpointPath
	// or OnCheckpoint is set).
	CheckpointEvery int
	// CheckpointPath is where checkpoints are written, atomically
	// (write-temp-then-rename): a crash mid-write can never leave a
	// torn file, the previous checkpoint survives intact.
	CheckpointPath string
	// Resume, when non-nil, continues training from a checkpoint
	// taken by an earlier run over the same examples and
	// configuration. The resumed run is bit-identical to the
	// uninterrupted one (see trainSchedule).
	Resume *Checkpoint
	// OnCheckpoint, when non-nil, observes every snapshot just after
	// it is (optionally) persisted — used for progress reporting and
	// by the chaos tests to kill training at an exact boundary.
	OnCheckpoint func(c *Checkpoint)
}

// Checkpoint is a resumable training snapshot: the full model (the
// SaveFull encoding, so config + vocabulary + weights), the Adam
// optimizer state, and the schedule position. The RNG position is not
// serialized — it is reconstructed on resume by replaying the same
// deterministic draws (parameter init + per-epoch shuffles) a fresh
// run would have made; see trainSchedule.
type Checkpoint struct {
	Kind  string // Translator.Name() of the model that wrote it
	Epoch int    // epoch the snapshot was taken in
	Step  int    // examples trained within that epoch
	Model []byte // the model's SaveFull encoding
	Adam  neural.AdamState
}

// Encode writes the checkpoint's gob encoding to w.
func (c *Checkpoint) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("models: encode checkpoint: %w", err)
	}
	return nil
}

// WriteFile persists the checkpoint to path atomically.
func (c *Checkpoint) WriteFile(path string) error {
	return WriteFileAtomic(path, c.Encode)
}

// LoadCheckpoint reads a checkpoint written by WriteFile.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("models: load checkpoint: %w", err)
	}
	var c Checkpoint
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("models: decode checkpoint %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("models: load checkpoint: %w", err)
	}
	return &c, nil
}

// WriteFileAtomic streams fill's output into a temporary file in
// path's directory and renames it over path only after the write
// completed and the file closed cleanly. Either the old content
// survives untouched (fill or close failed — the temp file is
// removed) or the new content replaces it completely; readers never
// observe a torn file.
func WriteFileAtomic(path string, fill func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// snapshot builds a checkpoint from a model's SaveFull and the
// optimizer state.
func snapshot(kind string, epoch, step int, save func(io.Writer) error, opt *neural.Adam) (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return nil, err
	}
	return &Checkpoint{Kind: kind, Epoch: epoch, Step: step, Model: buf.Bytes(), Adam: opt.State()}, nil
}

// scheduleCheckpointing wires TrainOptions into a schedule: resume
// offsets and the persist-then-observe checkpoint callback.
func scheduleCheckpointing(s *trainSchedule, opts TrainOptions, take func(epoch, step int) (*Checkpoint, error)) {
	if r := opts.Resume; r != nil {
		s.startEpoch, s.startStep = r.Epoch, r.Step
	}
	if opts.CheckpointPath == "" && opts.OnCheckpoint == nil {
		return
	}
	s.checkpointEvery = opts.CheckpointEvery
	s.checkpoint = func(epoch, step int) error {
		ck, err := take(epoch, step)
		if err != nil {
			return err
		}
		if opts.CheckpointPath != "" {
			if err := ck.WriteFile(opts.CheckpointPath); err != nil {
				return err
			}
		}
		if opts.OnCheckpoint != nil {
			opts.OnCheckpoint(ck)
		}
		return nil
	}
}

// resumeKindErr validates that a checkpoint belongs to this model
// kind.
func resumeKindErr(ck *Checkpoint, kind string) error {
	if ck.Kind != kind {
		return fmt.Errorf("models: resume: checkpoint was written by %q, model is %q", ck.Kind, kind)
	}
	return nil
}
