//! `optimize`: `mia optimize` on one generated NL16 file under a fixed
//! evaluation budget, called in a closed loop through `mia_cli::run`.

use mia_cli::WorkloadFile;
use mia_core::{AnalysisOptions, AnalysisReport, NoopObserver};
use mia_dse::{AnnealTuning, DseConfig, SearchSpace, Strategy};
use mia_model::{Mapping, Problem};

use crate::analyze::generate;
use crate::layers::{self, strip_pool_line};
use crate::ledger::{close, record_trace};
use crate::util::{
    argv, closed_loop, median, number_after, quantile, repeat_setup, Checks, Ctx, Metrics, Outcome,
};

const FAMILY: &str = "NL16";
const ARBITER: &str = "rr";
const CHAINS: usize = 8;
const THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median. Generating 600 tasks
/// takes milliseconds, so it takes many to steady the median.
const SETUP_REPS: usize = 41;
/// Traced `mia optimize` calls / traced layer-by-layer searches compared
/// by the ledger closure.
const CLOSURE_PAIRS: usize = 3;

/// The fields of one `mia optimize` JSON report the benchmark reads.
#[derive(Debug, Default)]
struct Run {
    seed_makespan: u64,
    best_makespan: u64,
    evaluations: u64,
    analyses: u64,
    cache_hits: u64,
    delta_resumes: u64,
    bound_cutoffs: u64,
    infeasible: u64,
    search_s: f64,
    /// The report without its wall-clock fields, for determinism checks.
    stable: String,
}

fn parse_report(out: &str) -> Option<Run> {
    let json = &out[out.find('{')?..];
    let field = |name: &str| number_after(json, &format!("\"{name}\":"));
    let seconds = json.find("\"seconds\":").map(|i| &json[i + 10..])?;
    let search_s = seconds
        .trim_start()
        .split(|c: char| c == ',' || c.is_whitespace())
        .next()?
        .parse()
        .ok()?;
    let stable = json
        .lines()
        .filter(|l| !l.contains("\"seconds\"") && !l.contains("\"wall_seconds\""))
        .collect::<Vec<_>>()
        .join("\n");
    Some(Run {
        seed_makespan: field("seed_makespan")?,
        best_makespan: field("optimized_makespan")?,
        evaluations: field("evaluations")?,
        analyses: field("analyses")?,
        cache_hits: field("cache_hits")?,
        delta_resumes: field("delta_resumes")?,
        bound_cutoffs: field("bound_cutoffs")?,
        infeasible: field("infeasible")?,
        search_s,
        stable,
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = Metrics::new();
    let mut layers = Metrics::new();
    let tasks = ctx.scale.pick(600, 64);
    let budget = ctx.scale.pick(4000, 200);
    let path = ctx.file("workload").to_string_lossy().into_owned();
    let seed = ctx.seed.to_string();

    let (setup_s, generated) =
        repeat_setup(SETUP_REPS, || generate(FAMILY, tasks, ctx.seed, &path));
    e2e.insert("setup_s", setup_s);
    checks.check(generated.is_ok(), || format!("generate: {generated:?}"));

    let args = argv(&[
        "optimize",
        &path,
        "--arbiters",
        ARBITER,
        "--chains",
        &CHAINS.to_string(),
        "--threads",
        &THREADS.to_string(),
        "--budget-evals",
        &budget.to_string(),
        "--seed",
        &seed,
    ]);
    let mut first: Option<Run> = None;
    let latencies = closed_loop(
        ctx.window,
        || mia_cli::run(&args),
        |out| match out
            .map_err(|e| e.to_string())
            .and_then(|o| parse_report(&o).ok_or_else(|| format!("unreadable report: {o:.300}")))
        {
            Err(e) => checks.check(false, || format!("optimize: {e}")),
            Ok(run) => match &first {
                None => {
                    // Mechanism-ran guard: the delta re-analysis the DSE
                    // hot loop is built around must have run.
                    checks.check(run.delta_resumes > 0, || "no delta resumes".into());
                    checks.check(run.best_makespan <= run.seed_makespan, || {
                        format!(
                            "best {} worse than seed {}",
                            run.best_makespan, run.seed_makespan
                        )
                    });
                    first = Some(run);
                }
                Some(f) => checks.check(f.stable == run.stable, || {
                    "optimize report changed between calls with the same seed".into()
                }),
            },
        },
    );
    let optimize_s = median(&latencies);
    e2e.insert("latency_p50_ms", optimize_s * 1e3);
    e2e.insert("latency_p99_ms", quantile(&latencies, 0.99) * 1e3);
    e2e.insert(
        "ops_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
    );
    layers.insert("ops.samples", latencies.len() as f64);
    let run = first.unwrap_or_default();
    e2e.insert("makespan_cycles", run.best_makespan as f64);
    checks.pin(ctx, "best_makespan", run.best_makespan);
    checks.pin(ctx, "seed_makespan", run.seed_makespan);

    // `mia optimize --with-mapping` reports each task's core but not the
    // order of the tasks on a core, so the best design is taken from the
    // search called directly. It must find what the CLI reported, and
    // that design, re-analysed from scratch, must reproduce the makespan.
    // Traced runs call the search for the ledger anyway.
    let closure = if ctx.trace {
        Some(close(
            CLOSURE_PAIRS,
            || drop(mia_cli::run(&args)),
            || search(&path, ctx.seed, budget),
        ))
    } else {
        None
    };
    let direct = match &closure {
        Some(c) => c.as_ref().map(|c| c.last.clone()).map_err(Clone::clone),
        None => search(&path, ctx.seed, budget),
    };
    match direct.and_then(|(best_makespan, mapping)| {
        let (problem, report) = reanalyse(&path, mapping)?;
        Ok((best_makespan, problem, report))
    }) {
        Ok((best_makespan, problem, report)) => {
            checks.check(best_makespan == run.best_makespan, || {
                format!(
                    "direct search found {best_makespan}, CLI {}",
                    run.best_makespan
                )
            });
            let got = report.schedule.makespan().as_u64();
            checks.check(got == run.best_makespan, || {
                format!(
                    "best design re-analyses to {got}, report says {}",
                    run.best_makespan
                )
            });
            if ctx.trace {
                if let Ok((unsound, sim_s)) = layers::unsound_tasks(&problem, &report, ARBITER) {
                    layers.insert("unsound_tasks", unsound as f64);
                    layers.insert("sim.simulate_s", sim_s);
                }
            }
        }
        Err(e) => checks.check(false, || format!("direct search: {e}")),
    }

    if ctx.trace {
        let evals = run.evaluations.max(1) as f64;
        let analyses = run.analyses.max(1) as f64;
        layers.insert("dse.analyses_per_s", run.analyses as f64 / run.search_s);
        layers.insert(
            "dse.delta_resume_ratio",
            run.delta_resumes as f64 / analyses,
        );
        layers.insert(
            "dse.bound_cutoff_ratio",
            run.bound_cutoffs as f64 / analyses,
        );
        layers.insert("dse.cache_hit_rate", run.cache_hits as f64 / evals);
        layers.insert("dse.infeasible_ratio", run.infeasible as f64 / evals);
        // The seed design through the analyze layers.
        match layers::pass(&path, ARBITER, 1) {
            Ok(p) => {
                let cli = mia_cli::run(&argv(&["analyze", &path, "--arbiter", ARBITER]));
                checks.check(
                    cli.is_ok_and(|c| strip_pool_line(&c) == strip_pool_line(&p.rendered)),
                    || "layer-by-layer report differs from `mia analyze`".into(),
                );
                layers::record(&mut layers, &[p]);
            }
            Err(e) => checks.check(false, || format!("layered pass: {e}")),
        }
        // As for analyze: traced `mia optimize` calls alternated with the
        // same path (load, then search) traced layer by layer.
        if let Some(Ok(c)) = &closure {
            record_trace(&mut layers, &c.ledger, c.dropped);
            layers.insert("ledger.unattributed_ratio", c.unattributed());
            layers.insert(
                "trace_overhead_ratio",
                c.whole_median_s() / optimize_s - 1.0,
            );
        }
    }
    let _ = std::fs::remove_file(&path);
    Outcome {
        e2e,
        layers,
        checks,
    }
}

/// Loads the workload, puts `mapping` (cores and per-core orders) in
/// place of its own, and analyses the result from scratch.
fn reanalyse(path: &str, mapping: Mapping) -> Result<(Problem, AnalysisReport), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let file: WorkloadFile = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let policy = file.parsed_policy().map_err(|e| e.to_string())?;
    let seed = file.into_problem().map_err(|e| e.to_string())?;
    let problem = Problem::with_policy(
        seed.graph().clone(),
        mapping,
        seed.platform().clone(),
        policy,
    )
    .map_err(|e| e.to_string())?;
    let arbiter = mia_arbiter::by_name_or_err(ARBITER)?;
    let report = mia_core::analyze_with(
        &problem,
        arbiter.as_ref(),
        &AnalysisOptions::new(),
        &mut NoopObserver,
    )
    .map_err(|e| e.to_string())?;
    Ok((problem, report))
}

/// `mia optimize` called layer by layer: read, parse, build, search.
/// Returns the best makespan and the design that reaches it.
fn search(path: &str, seed: u64, budget: usize) -> Result<(u64, Mapping), String> {
    let text = {
        let _s = mia_obs::span("cli.read");
        std::fs::read_to_string(path).map_err(|e| e.to_string())?
    };
    let file: WorkloadFile = {
        let _s = mia_obs::span("serde_json.parse");
        serde_json::from_str(&text).map_err(|e| e.to_string())?
    };
    let (problem, policy) = {
        let _s = mia_obs::span("model.build");
        let policy = file.parsed_policy().map_err(|e| e.to_string())?;
        (file.into_problem().map_err(|e| e.to_string())?, policy)
    };
    let _s = mia_obs::span("dse.optimize");
    let space = SearchSpace::new(problem, policy).with_options(AnalysisOptions::new());
    let config = DseConfig {
        strategy: Strategy::Portfolio { chains: CHAINS },
        seed,
        budget_evals: budget,
        threads: THREADS,
        tuning: AnnealTuning::default(),
        pareto: None,
    };
    let arbiter = mia_arbiter::by_name_or_err(ARBITER)?;
    let result = mia_dse::optimize(&space, arbiter.as_ref(), &config).map_err(|e| e.to_string())?;
    Ok((result.best_makespan, result.best_mapping))
}
