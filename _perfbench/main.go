// Command perfbench is DBPal's serving benchmark: an out-of-process
// harness over the shipped CLIs. Set-up trains a one-epoch sketch model
// with dbpal-train and boots dbpal-serve on it at its default settings;
// the measured phase sends a fixed, seeded list of questions to
// GET /v1/{schema}/ask from one closed-loop client over a keep-alive
// connection, and checks every answer against the gold SQL's rows.
// With -trace 1 it instead reports per-layer numbers: counters read
// from /statsz, and a single-threaded in-process replay of the same
// list with one span around each call into a layer's public function.
//
// Build the CLIs and the harness, then run it from the repository
// root (run.sh does both):
//
//	perfbench -workload ask-repeat -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// The directory name starts with an underscore so that the go tool's
// ./... patterns and the repository's own linter, which lint the main
// module's tree, leave this separate module alone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runBudget bounds a run's set-ups and sends: requests still unsent
// when it runs out count as failed, so a run always ends in time.
const runBudget = 120 * time.Second

// setupRuns is how many times a -trace 0 run trains and boots; setup_s
// is their median, and the measured list is split into as many
// segments, one sent after each set-up.
const setupRuns = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ask-repeat | ask-novel | ask-join")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: shapes the request list only")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding dbpal-train and dbpal-serve")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for models, logs and span files")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cpu, loop, err := pinOneCPU()
	if err != nil {
		return fmt.Errorf("pinning to one CPU: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pinned to CPU %d (fixed loop %v)\n", cpu, loop)
	for _, b := range []string{"dbpal-train", "dbpal-serve"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return fmt.Errorf("missing %s: %w", b, err)
		}
	}
	work := filepath.Join(o.out, "work", fmt.Sprintf("%s-%d-%d", sp.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	tn, err := loadTenant(sp.schema)
	if err != nil {
		return err
	}
	model := filepath.Join(work, "model")
	setups := setupRuns
	if o.trace {
		setups = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	ph, err := runPhase(ctx, o, sp, func() (*plan, error) {
		var keep func(request) bool
		if !sp.repeat {
			if keep, err = primaryFilter(ctx, tn, model); err != nil {
				return nil, err
			}
		}
		return buildPlan(sp, tn, o.seed, o.seconds, keep)
	}, work, model, setups)
	if err != nil {
		return err
	}
	p := ph.plan
	golds := map[string]answer{}
	for _, r := range p.measured {
		if _, ok := golds[r.NL]; ok {
			continue
		}
		a, err := tn.goldAnswer(r.Gold)
		if err != nil {
			return fmt.Errorf("gold %q: %w", r.Gold, err)
		}
		golds[r.NL] = a
	}

	rep := ph.score(p.measured, golds)
	counters := ph.counters(sp.schema)
	lat := ph.latenciesMS()
	fmt.Fprintf(os.Stderr, "%s seed %d: %d asks in %.2fs, statuses %v, %d latency samples (%d over 1s, p99 %.2fms, max %.1fms), %.1f asks/s; cache hit share %.4f, fallback share %.4f\n",
		sp.name, o.seed, rep.Attempted, ph.wall().Seconds(), ph.statuses(), len(lat), len(lat)-sort.SearchFloat64s(lat, 1000),
		quantile(lat, 0.99), quantile(lat, 1), ph.windowRPS(), counters["cache.hit_frac"], counters["models.fallback_frac"])

	values := map[string]float64{
		"setup_s":     median(ph.setups),
		"ask_p50_ms":  quantile(lat, 0.50),
		"ask_p99_ms":  quantile(lat, 0.99),
		"ask_rps":     ph.windowRPS(),
		"answer_acc":  ph.accuracy,
		"peak_rss_mb": ph.rssMB,
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		layers, err := traced(o, sp, p, model, ph)
		if err != nil {
			return err
		}
		for _, m := range []map[string]float64{layers, counters} {
			for k, v := range m {
				values[k] = v
			}
		}
		values["serve.boot_ms"] = ph.bootMS
	}
	rep.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traced runs the in-process replay and derives the per-layer metrics
// that come from spans.
func traced(o options, sp spec, p *plan, model string, ph *phase) (map[string]float64, error) {
	ctx := context.Background()
	t := newTracer(len(p.measured) * 16)
	rp, m, err := setupTrace(ctx, t, sp.schema, model)
	if err != nil {
		return nil, err
	}
	rp.replay(ctx, p.warm, 0, false)
	n, allocPerAsk := rp.replay(ctx, p.measured, time.Duration(o.seconds)*time.Second, true)
	if n == 0 {
		return nil, fmt.Errorf("replay ran no asks")
	}
	fmt.Fprintln(os.Stderr, rp)

	agg := t.aggregate(true)
	us := func(name string) float64 { return agg[name].meanSelfUS() }
	m["runtime.anonymize_us"] = us("runtime.anonymize")
	m["runtime.lemmatize_us"] = us("lemma.lemmatize")
	m["sqlast.parse_us"] = us("sqlast.parse")
	m["runtime.postprocess_us"] = us("runtime.postprocess")
	m["serve.encode_us"] = us("serve.encode")
	m["models.decode_us"] = us("models.decode")
	m["models.fallback_us"] = us("models.fallback")
	m["models.decodes_per_ask"] = float64(agg["models.decode"].Calls+agg["models.fallback"].Calls) / float64(n)
	m["critic.check_us"] = us("critic.check")
	m["critic.dryrun_us"] = us("critic.dryrun")
	m["critic.repair_us"] = us("critic.repair")
	m["engine.execute_us"] = us("engine.execute")
	m["engine.execute_max_ms"] = float64(agg["engine.execute"].MaxNS) / 1e6
	for k, v := range rp.verdictFracs() {
		m[k] = v
	}
	m["trace.alloc_kb_per_ask"] = allocPerAsk / 1024

	// The traced run's own cost: what recording its spans took.
	spans := 0
	for _, l := range agg {
		spans += l.Calls
	}
	m["trace.overhead_us_per_ask"] = spanCostNS() * float64(spans) / float64(n) / 1e3

	// What the untraced HTTP path spends outside the layer calls:
	// HTTP, admission, retry and the batch wait.
	sums := t.layerSumsUS()
	m["serve.residual_us"] = quantile(ph.latenciesMS(), 0.5)*1e3 - quantile(sums, 0.5)

	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, o.seed))
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans for %d asks to %s\n", len(t.spans), n, path)
	return m, nil
}

// median of a sample, averaging the middle pair of an even one.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile is the nearest-rank quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
