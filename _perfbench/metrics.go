package main

// metricDef names a reported metric and its unit; BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct {
	name, unit string
}

// endToEnd is what a -trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ask_p50_ms", "ms"},
	{"answer_acc", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a -trace 1 run reports. ask_p99_ms and ask_rps are
// end-to-end measures kept here because they do not repeat within a
// tenth from run to run while the host is in a slow stretch (NOTES.md,
// "Steadiness").
var perLayer = []metricDef{
	{"ask_p99_ms", "ms"},
	{"ask_rps", "1/s"},
	{"serve.boot_ms", "ms"},
	{"boot.resolve_ms", "ms"},
	{"pipeline.generate_ms", "ms"},
	{"pipeline.augment_ms", "ms"},
	{"pipeline.lemmatize_ms", "ms"},
	{"pipeline.dedup_ms", "ms"},
	{"pipeline.pairs", "count"},
	{"models.train_ms", "ms"},
	{"models.epoch_ms", "ms"},
	{"models.nn_index_ms", "ms"},
	{"runtime.anonymize_us", "us"},
	{"runtime.lemmatize_us", "us"},
	{"sqlast.parse_us", "us"},
	{"runtime.postprocess_us", "us"},
	{"serve.encode_us", "us"},
	{"trace.alloc_kb_per_ask", "KiB"},
	{"cache.hit_frac", "ratio"},
	{"cache.evictions", "count"},
	{"cache.entries", "count"},
	{"models.decode_us", "us"},
	{"models.decodes_per_ask", "count"},
	{"serve.batch_mean", "count"},
	{"serve.batch_timer_frac", "ratio"},
	{"models.fallback_frac", "ratio"},
	{"models.fallback_us", "us"},
	{"critic.check_us", "us"},
	{"critic.dryrun_us", "us"},
	{"critic.repair_us", "us"},
	{"critic.valid_frac", "ratio"},
	{"critic.repaired_frac", "ratio"},
	{"critic.rejected_frac", "ratio"},
	{"critic.unverified_frac", "ratio"},
	{"engine.execute_us", "us"},
	{"engine.execute_max_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"serve.residual_us", "us"},
	{"trace.overhead_us_per_ask", "us"},
}
