// Command dbpal-train bootstraps a translation model for a schema
// using DBPal's synthesized training data and saves the trained model
// (configuration + vocabulary + weights) to a file that cmd/dbpal can
// load with -load.
//
//	dbpal-train -schema patients -model sketch -o patients.model
//
// Long runs can checkpoint and resume: -checkpoint-every N writes an
// atomic training checkpoint (weights, optimizer state, RNG position)
// every N optimizer steps, SIGINT/SIGTERM triggers a final checkpoint
// before exiting, and -resume continues a run from a checkpoint file
// with a final model byte-identical to the uninterrupted run.
//
//	dbpal-train -model seq2seq -checkpoint-every 500 -o p.model
//	dbpal-train -model seq2seq -resume p.model.ckpt -o p.model
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	dbpal "repro"
	"repro/internal/models"
	"repro/internal/patients"
	"repro/internal/spider"
)

func main() {
	var (
		schemaName = flag.String("schema", "patients", "schema: patients or a Spider-zoo name")
		modelKind  = flag.String("model", "sketch", "translator: sketch | seq2seq")
		out        = flag.String("o", "dbpal.model", "output model file")
		seed       = flag.Int64("seed", 1, "pipeline and training seed")
		epochs     = flag.Int("epochs", 0, "override training epochs")
		ckptEvery  = flag.Int("checkpoint-every", 0, "write a training checkpoint every N optimizer steps (0 = off)")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file (default <out>.ckpt)")
		resumePath = flag.String("resume", "", "resume training from a checkpoint file")
	)
	flag.Parse()

	var s *dbpal.Schema
	if *schemaName == "patients" {
		s = patients.Schema()
	} else {
		s = spider.SchemaByName(*schemaName)
	}
	if s == nil {
		fmt.Fprintf(os.Stderr, "unknown schema %q\n", *schemaName)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the training context; the training loop
	// writes a final checkpoint (when checkpointing is configured)
	// before TrainContext returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := models.TrainOptions{CheckpointEvery: *ckptEvery}
	if *ckptEvery > 0 || *resumePath != "" {
		opts.CheckpointPath = *ckptPath
		if opts.CheckpointPath == "" {
			opts.CheckpointPath = *out + ".ckpt"
		}
	}
	if *resumePath != "" {
		ck, err := models.LoadCheckpoint(*resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Resume = ck
		fmt.Printf("resuming %s training from %s (epoch %d, step %d)\n", ck.Kind, *resumePath, ck.Epoch, ck.Step)
	}

	t0 := time.Now() //lint:allow determinism wall-clock timing is progress reporting only
	pairs := dbpal.GenerateTrainingData(s, dbpal.DefaultParams(), *seed)
	fmt.Printf("pipeline synthesized %d pairs for %q in %s\n", len(pairs), s.Name, time.Since(t0).Round(time.Millisecond))

	t1 := time.Now() //lint:allow determinism wall-clock timing is progress reporting only
	exs := dbpal.TrainingExamples(pairs, s)
	fmt.Printf("converted them to %d examples in %s\n", len(exs), time.Since(t1).Round(time.Millisecond))

	t2 := time.Now() //lint:allow determinism wall-clock timing is progress reporting only
	var (
		save     func(io.Writer) error
		trainErr error
		detail   string
	)
	switch *modelKind {
	case "seq2seq":
		cfg := dbpal.DefaultSeq2SeqConfig()
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		m := models.NewSeq2Seq(cfg)
		trainErr = m.TrainContext(ctx, exs, opts)
		save, detail = m.SaveFull, fmt.Sprintf("seq2seq (%d params)", m.NumParams())
	default:
		cfg := dbpal.DefaultSketchConfig()
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		m := models.NewSketch(cfg)
		trainErr = m.TrainContext(ctx, exs, opts)
		save, detail = m.SaveFull, fmt.Sprintf("sketch model (%d sketches)", m.NumSketches())
	}
	if trainErr != nil {
		if errors.Is(trainErr, context.Canceled) && opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr, "interrupted: checkpoint saved to %s; resume with -resume %s\n",
				opts.CheckpointPath, opts.CheckpointPath)
		} else {
			fmt.Fprintln(os.Stderr, trainErr)
		}
		os.Exit(1)
	}
	fmt.Printf("trained %s in %s\n", detail, time.Since(t2).Round(time.Millisecond))

	// The model file is written atomically: a crash mid-write cannot
	// hand cmd/dbpal a truncated model.
	if err := models.WriteFileAtomic(*out, save); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("saved to %s\n", *out)
}
