//! The analyze path called layer by layer from outside the program.
//!
//! `mia analyze <file>` reads the file (`cli`), parses it (`serde_json`),
//! validates it into a `Problem` (`model`), runs the analysis (`core`)
//! and renders the report (`trace`). [`pass`] calls each of those public
//! functions in turn, times each one, and wraps each in a
//! `mia_obs::span` named after its layer so a traced pass can compute
//! self times. Its rendered report must equal the CLI's byte for byte
//! (apart from the timing-dependent pool line), which is what makes the
//! per-layer times add up to the CLI call.

use std::time::Duration;

use mia_cli::WorkloadFile;
use mia_core::{AnalysisOptions, AnalysisReport, NoopObserver};
use mia_model::Problem;
use mia_sim::{AccessPattern, BusPolicy, SimConfig};

use crate::ledger::Ledger;
use crate::util::{secs, timed, Metrics};

/// One layer-by-layer run of `mia analyze`.
pub struct Pass {
    pub problem: Problem,
    pub report: AnalysisReport,
    /// The rendered report, as `mia analyze` prints it.
    pub rendered: String,
    pub bytes: usize,
    pub edges: usize,
    /// Wall time per layer: read, parse, build, analyze, render.
    pub times: [Duration; 5],
}

fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    timed(|| {
        let _span = mia_obs::span(name);
        f()
    })
}

/// Analysis options `mia analyze` uses.
pub fn cli_options() -> AnalysisOptions {
    AnalysisOptions::new().task_deadlines(true)
}

/// Runs `mia analyze <path> --arbiter <arbiter> --threads <threads>`
/// layer by layer.
pub fn pass(path: &str, arbiter_name: &str, threads: usize) -> Result<Pass, String> {
    let arbiter = mia_arbiter::by_name_or_err(arbiter_name)?;
    let (text, read) = layer("cli.read", || std::fs::read_to_string(path));
    let text = text.map_err(|e| format!("{path}: {e}"))?;
    let (file, parse) = layer("serde_json.parse", || {
        serde_json::from_str::<WorkloadFile>(&text)
    });
    let file = file.map_err(|e| format!("{path}: {e}"))?;
    let edges = file.edges.len();
    let (problem, build) = layer("model.build", || file.into_problem());
    let problem = problem.map_err(|e| format!("{path}: {e}"))?;
    // The CLI frees the file text once the problem is built.
    let bytes = text.len();
    let ((), free) = layer("cli.read", || drop(text));
    let options = cli_options();
    let (report, analyze) = layer("core.analyze", || {
        if threads == 1 {
            mia_core::analyze_with(&problem, arbiter.as_ref(), &options, &mut NoopObserver)
        } else {
            mia_core::analyze_parallel_with(
                &problem,
                arbiter.as_ref(),
                &options,
                threads,
                &mut NoopObserver,
            )
        }
    });
    let report = report.map_err(|e| format!("{path}: {e}"))?;
    let (rendered, render) = layer("trace.render", || {
        let schedule = &report.schedule;
        let mut out = format!(
            "algorithm: incremental   arbiter: {}   tasks: {}\n",
            arbiter.name(),
            problem.len()
        );
        out.push_str(&format!(
            "makespan: {}   total interference: {}\n\n",
            schedule.makespan(),
            schedule.total_interference()
        ));
        out.push_str(&mia_trace::schedule_table(&problem, schedule));
        out
    });
    Ok(Pass {
        problem,
        report,
        rendered,
        bytes,
        edges,
        times: [read + free, parse, build, analyze, render],
    })
}

/// Frees a pass the way the CLI frees its problem and report before
/// returning, under a span of its own so the ledger counts it.
pub fn teardown(pass: Pass) {
    let _span = mia_obs::span("model.drop");
    drop(pass);
}

/// `mia analyze` output without the `parallel:` line, whose auto-tuned
/// threshold and fan-out split depend on timing.
pub fn strip_pool_line(output: &str) -> String {
    output
        .lines()
        .filter(|l| !l.starts_with("parallel:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The simulated bus that matches an arbiter's bound model.
pub fn bus_for(arbiter: &str) -> BusPolicy {
    match arbiter {
        "mppa" => BusPolicy::Tree { group: 2 },
        _ => BusPolicy::FlatRoundRobin,
    }
}

/// Simulates `report`'s schedule with every task issuing its accesses at
/// its start, on the bus matching `arbiter`, and counts the tasks whose
/// simulated finish exceeds the analysed one. Returns the count and the
/// simulation's wall time.
pub fn unsound_tasks(
    problem: &Problem,
    report: &AnalysisReport,
    arbiter: &str,
) -> Result<(u64, f64), String> {
    let config = SimConfig::new(AccessPattern::BurstStart).bus(bus_for(arbiter));
    let (run, took) = timed(|| mia_sim::simulate(problem, &report.schedule, &config));
    let run = run.map_err(|e| e.to_string())?;
    let unsound = problem
        .graph()
        .task_ids()
        .filter(|&t| run.finish(t) > report.schedule.timing(t).finish())
        .count();
    Ok((unsound as u64, secs(took)))
}

/// Records a pass's per-layer times (medians over `passes`) and work
/// counts into `layers`.
pub fn record(layers: &mut Metrics, passes: &[Pass]) {
    let Some(first) = passes.first() else {
        return;
    };
    let keys = [
        "cli.read_s",
        "serde_json.parse_s",
        "model.build_s",
        "core.analyze_s",
        "trace.render_s",
    ];
    for (i, key) in keys.into_iter().enumerate() {
        let times: Vec<f64> = passes.iter().map(|p| secs(p.times[i])).collect();
        layers.insert(key, crate::util::median(&times));
    }
    let stats = &first.report.stats;
    layers.insert("workload.tasks", first.problem.len() as f64);
    layers.insert("workload.edges", first.edges as f64);
    layers.insert("workload.bytes", first.bytes as f64);
    layers.insert("core.cursor_steps", stats.cursor_steps as f64);
    layers.insert("core.ibus_calls", stats.ibus_calls as f64);
    layers.insert("core.pairs_considered", stats.pairs_considered as f64);
}

/// Records a traced pooled pass: how the analysis split its steps
/// between the worker pool and the calling thread, and the pool's
/// hand-off times.
pub fn record_pool(layers: &mut Metrics, report: &AnalysisReport, ledger: &Ledger) {
    if let Some(info) = report.parallel {
        layers.insert("core.parallel.fanout_steps", info.fanout_steps as f64);
        layers.insert("core.parallel.inline_steps", info.inline_steps as f64);
    }
    layers.insert(
        "obs.parallel.driver_wait_s",
        ledger.total_s("parallel.driver_wait"),
    );
    layers.insert(
        "obs.parallel.worker_work_s",
        ledger.total_s("parallel.worker_work"),
    );
}
