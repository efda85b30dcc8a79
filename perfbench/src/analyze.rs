//! `analyze-deep`: `mia analyze` on one generated LS16 workload file
//! (100k tasks, `mppa`), called in a closed loop through `mia_cli::run`.

use crate::layers::{self, strip_pool_line, Pass};
use crate::ledger::{close, record_trace, traced, Ledger};
use crate::util::{
    argv, closed_loop, median, number_after, quantile, repeat_setup, Checks, Ctx, Metrics, Outcome,
};

const FAMILY: &str = "LS16";
const ARBITER: &str = "mppa";
/// `--threads` of the measured calls: the sequential analysis, so the
/// `core` layer dominates the call.
const THREADS: usize = 1;
/// Threads of the pool check run outside the measured window: its
/// schedule must equal the measured one, and the pool must fan out.
const POOL_THREADS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Traced `mia analyze` calls / traced layer-by-layer passes compared
/// by the ledger closure.
const CLOSURE_PAIRS: usize = 7;

/// Writes a generated workload with `mia generate`.
pub fn generate(family: &str, tasks: usize, seed: u64, path: &str) -> Result<String, String> {
    mia_cli::run(&argv(&[
        "generate",
        "--family",
        family,
        "-n",
        &tasks.to_string(),
        "--seed",
        &seed.to_string(),
        "-o",
        path,
    ]))
    .map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = Metrics::new();
    let mut layers = Metrics::new();
    let tasks = ctx.scale.pick(100_000, 640);
    let path = ctx.file("workload").to_string_lossy().into_owned();

    let (setup_s, generated) =
        repeat_setup(SETUP_REPS, || generate(FAMILY, tasks, ctx.seed, &path));
    e2e.insert("setup_s", setup_s);
    checks.check(generated.is_ok(), || format!("generate: {generated:?}"));

    // The measured window: untraced `mia analyze` calls back to back.
    let threads = THREADS.to_string();
    let args = argv(&[
        "analyze",
        &path,
        "--arbiter",
        ARBITER,
        "--threads",
        &threads,
    ]);
    let mut first: Option<String> = None;
    let latencies = closed_loop(
        ctx.window,
        || mia_cli::run(&args),
        |out| match out {
            Err(e) => checks.check(false, || format!("analyze: {e}")),
            Ok(out) => {
                let out = strip_pool_line(&out);
                match &first {
                    None => {
                        checks.check(true, String::new);
                        first = Some(out);
                    }
                    Some(f) => {
                        checks.check(*f == out, || "analyze output changed between calls".into())
                    }
                }
            }
        },
    );
    let analyze_s = median(&latencies);
    e2e.insert("latency_p50_ms", analyze_s * 1e3);
    e2e.insert("latency_p99_ms", quantile(&latencies, 0.99) * 1e3);
    e2e.insert(
        "ops_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
    );
    layers.insert("ops.samples", latencies.len() as f64);
    let first = first.unwrap_or_default();
    let makespan = number_after(&first, "makespan:").unwrap_or(0);
    e2e.insert("makespan_cycles", makespan as f64);
    checks.pin(ctx, "makespan", makespan);

    // Outside the window, the pool check: the same analysis on the
    // persistent worker pool, called layer by layer, must render the
    // CLI's report, and the pool must have fanned out (mechanism-ran
    // guard: a pool that never fanned out measured the sequential path).
    // Traced runs trace it too, for the pool's hand-off spans.
    let (pooled, pool_ledger) = if ctx.trace {
        let (pooled, spans, _) = traced(|| layers::pass(&path, ARBITER, POOL_THREADS));
        (pooled, Some(Ledger::new(&spans, mia_obs::thread_id())))
    } else {
        (layers::pass(&path, ARBITER, POOL_THREADS), None)
    };
    match &pooled {
        Ok(p) => {
            checks.check(strip_pool_line(&p.rendered) == first, || {
                format!("{POOL_THREADS}-thread schedule differs from the {THREADS}-thread one")
            });
            let fanout = p.report.parallel.map_or(0, |info| info.fanout_steps);
            checks.check(fanout > 0, || {
                format!("{POOL_THREADS}-thread pool never fanned out")
            });
            if let Some(ledger) = &pool_ledger {
                layers::record_pool(&mut layers, &p.report, ledger);
            }
        }
        Err(e) => checks.check(false, || format!("pooled pass: {e}")),
    }
    drop(pooled);
    if ctx.trace {
        // The workload's own path layer by layer. Its report must match
        // the CLI's, or the layer times would not add up to the call.
        let mut passes: Vec<Pass> = Vec::new();
        for _ in 0..2 {
            match layers::pass(&path, ARBITER, THREADS) {
                Ok(p) => passes.push(p),
                Err(e) => checks.check(false, || format!("layered pass: {e}")),
            }
        }
        if let Some(p) = passes.first() {
            checks.check(strip_pool_line(&p.rendered) == first, || {
                "layer-by-layer report differs from `mia analyze`".into()
            });
            match layers::unsound_tasks(&p.problem, &p.report, ARBITER) {
                Ok((unsound, sim_s)) => {
                    layers.insert("unsound_tasks", unsound as f64);
                    layers.insert("sim.simulate_s", sim_s);
                }
                Err(e) => checks.check(false, || format!("simulate: {e}")),
            }
        }
        layers::record(&mut layers, &passes);
        drop(passes);
        // Traced `mia analyze` calls alternated with the same path traced
        // layer by layer: the ledger compares the two, so it measures how
        // much of the call the layers account for; the tracing overhead is
        // reported on its own against the untraced calls.
        let closure = close(
            CLOSURE_PAIRS,
            || drop(mia_cli::run(&args)),
            || layers::pass(&path, ARBITER, THREADS).map(layers::teardown),
        );
        match closure {
            Ok(c) => {
                record_trace(&mut layers, &c.ledger, c.dropped);
                let unattributed = c.unattributed();
                layers.insert("ledger.unattributed_ratio", unattributed);
                layers.insert("trace_overhead_ratio", c.whole_median_s() / analyze_s - 1.0);
                // Ledger closure: the layers must account for the call,
                // unless spans were dropped (then it is incomplete).
                if c.dropped == 0 {
                    checks.check(unattributed.abs() <= 0.10, || {
                        format!("ledger does not close: unattributed {unattributed:.3}")
                    });
                }
            }
            Err(e) => checks.check(false, || format!("traced pass: {e}")),
        }
    }
    let _ = std::fs::remove_file(&path);
    Outcome {
        e2e,
        layers,
        checks,
    }
}
