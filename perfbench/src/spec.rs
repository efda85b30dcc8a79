//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-test (`perfbench/selftest.py`) checks that the two agree.

/// Metrics a user of the system sees, printed by untraced runs
/// (`--trace 0`). Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("makespan_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, printed by traced runs (`--trace 1`).
/// A layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ops.samples", "count"),
    ("error_rate", "ratio"),
    ("unsound_tasks", "count"),
    ("workload.tasks", "count"),
    ("workload.edges", "count"),
    ("workload.bytes", "B"),
    ("cli.read_s", "s"),
    ("serde_json.parse_s", "s"),
    ("model.build_s", "s"),
    ("core.analyze_s", "s"),
    ("core.cursor_steps", "count"),
    ("core.ibus_calls", "count"),
    ("core.pairs_considered", "count"),
    ("core.parallel.fanout_steps", "count"),
    ("core.parallel.inline_steps", "count"),
    ("trace.render_s", "s"),
    ("sim.simulate_s", "s"),
    ("dse.analyses_per_s", "1/s"),
    ("dse.delta_resume_ratio", "ratio"),
    ("dse.bound_cutoff_ratio", "ratio"),
    ("dse.cache_hit_rate", "ratio"),
    ("dse.infeasible_ratio", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.load_p50_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.execute_analyze_mean_ms", "ms"),
    ("serve.execute_load_mean_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.resident", "count"),
    ("serve.cache_entries", "count"),
    ("obs.analysis.account_self_s", "s"),
    ("obs.analysis.close_open_self_s", "s"),
    ("obs.analysis.advance_self_s", "s"),
    ("obs.parallel.driver_wait_s", "s"),
    ("obs.parallel.worker_work_s", "s"),
    ("obs.dse.full_analysis_self_s", "s"),
    ("obs.dse.delta_resume_self_s", "s"),
    ("obs.dse.validate_self_s", "s"),
    ("obs.spans_dropped", "count"),
    ("ledger.unattributed_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["analyze-deep", "optimize", "serve-mixed"];
