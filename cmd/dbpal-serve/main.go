// Command dbpal-serve exposes bootstrapped DBPal models over HTTP
// behind the hardened multi-tenant serving layer (internal/serve):
// per-tenant admission control with bounded queueing, per-request
// deadlines, circuit breakers around each tier and the critic that
// trip only on infrastructure failures, graceful drain, and an
// anonymization-keyed result cache (-cache-size) in front of the
// decoder. A cache miss decodes at once, with no
// cross-request batching (DESIGN.md, "Why there is no batcher").
//
//	dbpal-serve -schema patients,flights -model nn -addr :8080
//	curl 'localhost:8080/v1/flights/ask?q=show+the+names+of+all+airlines'
//	curl -X POST localhost:8080/schemas -d '{"schema":"college","model":"nn"}'
//
// -schema takes a comma-separated list; every named schema boots
// before the listener opens. More schemas onboard at runtime through
// POST /schemas — generate→train→eval→swap in the background, with
// progress at GET /schemas/{name} — gated by -min-accuracy and
// restartable from -checkpoint-dir. Onboarded tenants are built with
// the same -model, -seed, -rows, -deadline, -fallback and -critic*
// settings as the boot-time ones; an onboarding request's fields
// override them.
//
// Endpoints: /v1/{schema}/ask (translate + execute), /v1/{schema}/
// translate, /schemas (GET list, POST onboard), /schemas/{name} (GET
// status, DELETE), /healthz, /readyz, /statsz. SIGINT/SIGTERM drain:
// /readyz flips to 503, onboarding is cancelled (its checkpoint
// survives for the next run), in-flight requests finish under -drain,
// then the process exits 0.
//
// Use -model nn for the instant-start template nearest-neighbor
// translator (no neural training), or sketch/seq2seq as in dbpal,
// optionally with -load for weights saved by dbpal-train.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/boot"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		schemas   = flag.String("schema", "patients", "comma-separated schemas to boot: patients | flights | ... | synth:<seed>")
		modelKind = flag.String("model", "sketch", "translator: sketch | seq2seq | nn")
		loadPath  = flag.String("load", "", "load model weights saved by dbpal-train instead of training (single-schema only)")
		seed      = flag.Int64("seed", 1, "pipeline and training seed")
		rows      = flag.Int("rows", 40, "synthetic rows per table for non-patients schemas")
		deadline  = flag.Duration("deadline", 0, "per-question inference deadline per tier (0 = half of -timeout)")
		fallback  = flag.Bool("fallback", true, "degrade to a template nearest-neighbor tier when the primary model fails")

		workers  = flag.Int("workers", 0, "max concurrent translations per tenant (0 = NumCPU)")
		queue    = flag.Int("queue", 0, "waiting-room size before shedding (0 = 2x workers)")
		timeout  = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		drain    = flag.Duration("drain", 15*time.Second, "max wait for in-flight requests on shutdown")
		breakers = flag.Bool("breakers", true, "run a circuit breaker per translator tier and around the critic")
		cooldown = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before the half-open probe")

		criticOn  = flag.Bool("critic", true, "validate and repair every candidate through the execution-guided critic before answering")
		rowBudget = flag.Int("critic-budget", 0, "critic dry-run row budget (0 = default)")
		criticTO  = flag.Duration("critic-timeout", 0, "critic dry-run deadline (0 = default)")

		cacheSize = flag.Int("cache-size", 1024, "anonymization-keyed result cache entries per model version (0 = no cache)")

		minAcc    = flag.Float64("min-accuracy", 0, "onboarding eval gate: reject candidate models scoring below this (0 = no gate)")
		evalQs    = flag.Int("eval-questions", 0, "onboarding eval workload size (0 = default, negative = skip eval)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for restartable onboarding checkpoints (empty = not restartable)")
		ckptEvery = flag.Int("checkpoint-every", 0, "optimizer steps between onboarding checkpoints (0 = default)")
	)
	flag.Parse()

	// One build template serves the boot-time tenants and the ones
	// onboarded later through POST /schemas.
	spec := boot.Spec{
		Model:           *modelKind,
		Seed:            *seed,
		Rows:            *rows,
		Deadline:        *deadline,
		Fallback:        *fallback,
		Critic:          *criticOn,
		CriticRowBudget: *rowBudget,
		CriticTimeout:   *criticTO,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if err := run(config{
		addr: *addr, schemas: strings.Split(*schemas, ","), spec: spec, loadPath: *loadPath,
		workers: *workers, queue: *queue, timeout: *timeout, drain: *drain,
		breakers: *breakers, cooldown: *cooldown,
		cacheSize:   *cacheSize,
		minAccuracy: *minAcc, evalQuestions: *evalQs,
		checkpointDir: *ckptDir, checkpointEvery: *ckptEvery,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type config struct {
	addr            string
	schemas         []string
	spec            boot.Spec
	loadPath        string
	workers, queue  int
	timeout, drain  time.Duration
	breakers        bool
	cooldown        time.Duration
	cacheSize       int
	minAccuracy     float64
	evalQuestions   int
	checkpointDir   string
	checkpointEvery int
}

func run(cfg config) error {
	if cfg.loadPath != "" && len(cfg.schemas) > 1 {
		return fmt.Errorf("-load applies to a single schema; got %d", len(cfg.schemas))
	}

	// Boot every named schema before the listener opens: each is a
	// self-contained tenant unit built through the shared path.
	var units []*boot.Unit
	for _, name := range cfg.schemas {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec := cfg.spec
		spec.Schema, spec.LoadPath = name, cfg.loadPath
		u, err := boot.Build(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("booting %s: %w", name, err)
		}
		units = append(units, u)
	}
	if len(units) == 0 {
		return fmt.Errorf("no schemas to serve")
	}

	srv := serve.NewMulti(units, serve.Config{
		Workers:         cfg.workers,
		Queue:           cfg.queue,
		Timeout:         cfg.timeout,
		Breaker:         serve.BreakerConfig{Cooldown: cfg.cooldown},
		DisableBreakers: !cfg.breakers,
		CacheSize:       cfg.cacheSize,
		Spec:            cfg.spec,
		MinAccuracy:     cfg.minAccuracy,
		EvalQuestions:   cfg.evalQuestions,
		CheckpointDir:   cfg.checkpointDir,
		CheckpointEvery: cfg.checkpointEvery,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	errc := srv.Start(ln)
	var names []string
	for _, u := range units {
		names = append(names, u.Schema.Name)
	}
	fmt.Printf("serving schemas [%s] on http://%s (/v1/{schema}/ask /schemas /healthz /readyz /statsz)\n",
		strings.Join(names, " "), ln.Addr())

	// SIGINT/SIGTERM start the drain; a second deadline bounds it.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-errc:
		// The listener died underneath us.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	fmt.Printf("signal received; draining (up to %s)...\n", cfg.drain)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Println("drained; bye")
	return nil
}
