//! `perfbench`: the mia benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|toy] [--pins FILE] [--work-dir DIR]
//! ```
//!
//! Generates the workload's inputs from the seed, measures the program
//! through its public entry points for the given number of seconds,
//! checks the outputs and prints one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `perfbench/README.md` for the workloads and metrics.

mod analyze;
mod layers;
mod ledger;
mod optimize;
mod serve;
mod spec;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use util::{Ctx, Metrics, Outcome, Scale};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            spec::WORKLOADS.join(", ")
        ));
    }
    let number = |name: &str, default: &str| -> Result<u64, String> {
        flag(args, name)
            .unwrap_or(default)
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let seed = number("--seed", "7")?;
    let seconds = number("--seconds", "10")?;
    let trace = match number("--trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let scale = match flag(args, "--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "toy" => Scale::Toy,
        other => return Err(format!("unknown scale `{other}` (full, toy)")),
    };
    let pins_path = PathBuf::from(flag(args, "--pins").unwrap_or("perfbench/pins.json"));
    let pins = util::load_pins(&pins_path)?;
    let work = PathBuf::from(flag(args, "--work-dir").unwrap_or(".perfbench_work"));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Ctx {
        workload: workload.to_owned(),
        seed,
        window: Duration::from_secs(seconds),
        trace,
        scale,
        work,
        pins,
    })
}

fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "analyze-deep" => analyze::run(ctx),
        "optimize" => optimize::run(ctx),
        "serve-mixed" => serve::run(ctx),
        other => unreachable!("workload `{other}` was validated"),
    }
}

/// Renders the result line. Every catalogued metric is printed; a
/// per-layer metric the workload never touched reads 0, a missing
/// end-to-end metric is a benchmark bug and fails the run.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let (catalogue, values): (&[(&str, &str)], &Metrics) = if trace {
        (spec::PER_LAYER, &outcome.layers)
    } else {
        (spec::END_TO_END, &outcome.e2e)
    };
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let value = match values.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not a number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let checks = &outcome.checks;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&ctx);
    outcome.e2e.insert("peak_rss_mb", util::peak_rss_mb());
    let checks = &outcome.checks;
    outcome.layers.insert(
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    for note in &checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    match result_line(&outcome, ctx.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
