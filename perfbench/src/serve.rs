//! `serve-mixed`: an in-process `mia serve` daemon running the real CLI
//! engine, with resident problems and two closed-loop clients sending a
//! seeded mix of cache hits, cache misses, loads and uncacheable
//! requests over TCP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mia_cli::CliEngine;
use mia_serve::{Client, ReplyBody, ServeConfig, ServeHandle};

use crate::analyze::generate;
use crate::layers::{self, strip_pool_line};
use crate::ledger::{record_trace, traced, Ledger};
use crate::util::{
    argv, median, number_after, quantile, repeat_setup, secs, timed, Checks, Ctx, Metrics, Outcome,
    Rng,
};

const FAMILY: &str = "LS16";
const ARBITER: &str = "mppa";
const RESIDENT: usize = 8;
const WORKERS: usize = 2;
const CLIENTS: u64 = 2;
const SETUP_REPS: usize = 5;
/// Length of one traced slice; spans are drained between slices.
const TRACE_SLICE: Duration = Duration::from_millis(250);

/// The request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `analyze --handle h` with flags seen before: a memo hit.
    Hit,
    /// `analyze --handle h --deadline <fresh>`: a memo miss.
    Miss,
    /// `load <file>`: grows the resident store.
    Load,
    /// `analyze rosace`: a preset, never cached.
    Preset,
}

impl Class {
    /// Draws a class with shares 70 / 20 / 5 / 5 %.
    fn draw(rng: &mut Rng) -> Class {
        match rng.below(100) {
            0..=69 => Class::Hit,
            70..=89 => Class::Miss,
            90..=94 => Class::Load,
            _ => Class::Preset,
        }
    }
}

/// The daemon plus what the checks compare its replies against.
struct Daemon {
    handle: ServeHandle,
    files: Vec<String>,
    handles: Vec<u64>,
    /// The reply to `analyze --handle h --arbiter mppa`, per resident.
    reference: Vec<String>,
    /// Resident `analyze` requests sent so far (hits plus misses).
    resident_analyses: u64,
}

fn base_args() -> Vec<String> {
    argv(&["--arbiter", ARBITER])
}

fn start(ctx: &Ctx, tasks: usize) -> Result<Daemon, String> {
    let files: Vec<String> = (0..RESIDENT)
        .map(|i| {
            ctx.file(&format!("resident{i}"))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for (i, file) in files.iter().enumerate() {
        generate(FAMILY, tasks, ctx.seed * RESIDENT as u64 + i as u64, file)?;
    }
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let handle = ServeHandle::spawn(Arc::new(CliEngine), config);
    let mut client = handle.client();
    let mut handles = Vec::new();
    let mut reference = Vec::new();
    for file in &files {
        let h = client.load(file, &[]).map_err(|e| e.to_string())?;
        let reply = client
            .run_resident("analyze", h, &base_args())
            .map_err(|e| e.to_string())?;
        handles.push(h);
        reference.push(reply.output);
    }
    Ok(Daemon {
        handle,
        files,
        handles,
        reference,
        resident_analyses: RESIDENT as u64,
    })
}

/// One client's record of one request.
struct Sample {
    class: Class,
    latency_s: f64,
    /// `None` when the reply was as expected, else what went wrong.
    problem: Option<String>,
    /// A reply to check against the one-shot CLI after the window.
    distinct: Option<(usize, Vec<String>, String)>,
}

/// Drives the mix from `CLIENTS` threads for `window`.
fn drive(
    daemon: &Daemon,
    seed: u64,
    window: Duration,
    deadline_counter: &AtomicU64,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = daemon.handle.client();
                    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(c));
                    let mut samples = Vec::new();
                    while started.elapsed() < window || samples.is_empty() {
                        samples.push(one_request(daemon, &mut client, &mut rng, deadline_counter));
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (samples, secs(started.elapsed()))
}

fn one_request(
    daemon: &Daemon,
    client: &mut Client,
    rng: &mut Rng,
    deadlines: &AtomicU64,
) -> Sample {
    let class = Class::draw(rng);
    let which = rng.below(RESIDENT as u64) as usize;
    let mut args = base_args();
    if class == Class::Miss {
        // Far beyond any makespan, so the deadline holds; fresh per
        // request, so the memo has never seen these flags.
        let deadline = 1_000_000_000_000 + deadlines.fetch_add(1, Ordering::Relaxed);
        args.extend(argv(&["--deadline", &deadline.to_string()]));
    }
    let (reply, took): (Result<ReplyBody, _>, _) = timed(|| match class {
        Class::Hit | Class::Miss => client.run_resident("analyze", daemon.handles[which], &args),
        Class::Load => {
            client.request(mia_serve::Request::new(0, "load").workload(&daemon.files[which]))
        }
        Class::Preset => client.run("analyze", "rosace", &[]),
    });
    let mut sample = Sample {
        class,
        latency_s: secs(took),
        problem: None,
        distinct: None,
    };
    match reply {
        Err(e) => sample.problem = Some(format!("{class:?}: {e}")),
        Ok(body) => match class {
            Class::Hit | Class::Miss => {
                if body.output != daemon.reference[which] {
                    sample.distinct = Some((which, args, body.output));
                }
            }
            Class::Load => {
                if body.handle.is_none() || body.tasks != Some(resident_tasks(daemon, which)) {
                    sample.problem = Some(format!("load reply: {}", body.output));
                }
            }
            Class::Preset => {
                if !body.output.contains("makespan:") {
                    sample.problem = Some(format!("rosace reply: {:.200}", body.output));
                }
            }
        },
    }
    sample
}

/// Task count of resident `which`, as its load reply should report it.
fn resident_tasks(daemon: &Daemon, which: usize) -> u64 {
    number_after(&daemon.reference[which], "tasks:").unwrap_or(0)
}

/// Counts each sample's reply check and the resident analyses it sent.
fn account(checks: &mut Checks, daemon: &mut Daemon, samples: &[Sample]) {
    for sample in samples {
        checks.check(sample.problem.is_none(), || {
            sample.problem.clone().unwrap_or_default()
        });
        if matches!(sample.class, Class::Hit | Class::Miss) {
            daemon.resident_analyses += 1;
        }
    }
}

fn latency_p50_ms(samples: &[Sample], class: Class) -> f64 {
    let lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.latency_s)
        .collect();
    median(&lat) * 1e3
}

fn mean_ms(snapshot: &mia_obs::RegistrySnapshot, name: &str) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| h.mean() / 1e6)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut e2e = Metrics::new();
    let mut layers = Metrics::new();
    let tasks = ctx.scale.pick(2000, 64);

    let (setup_s, daemon) = repeat_setup(SETUP_REPS, || start(ctx, tasks));
    e2e.insert("setup_s", setup_s);
    let mut daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            checks.check(false, || format!("daemon set-up: {e}"));
            return Outcome {
                e2e,
                layers,
                checks,
            };
        }
    };

    let deadlines = AtomicU64::new(0);
    let (samples, wall_s) = drive(&daemon, ctx.seed, ctx.window, &deadlines);
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    e2e.insert("latency_p50_ms", median(&latencies) * 1e3);
    e2e.insert("latency_p99_ms", quantile(&latencies, 0.99) * 1e3);
    e2e.insert("ops_per_s", samples.len() as f64 / wall_s);
    layers.insert("ops.samples", samples.len() as f64);
    let makespan = number_after(&daemon.reference[0], "makespan:").unwrap_or(0);
    e2e.insert("makespan_cycles", makespan as f64);
    checks.pin(ctx, "makespan", makespan);

    account(&mut checks, &mut daemon, &samples);
    // Mechanism-ran guards: every class of the mix must have run.
    for class in [Class::Hit, Class::Miss, Class::Load, Class::Preset] {
        let ran = samples.iter().any(|s| s.class == class);
        checks.check(ran, || format!("no {class:?} request in the window"));
    }

    let mut client = daemon.handle.client();
    if ctx.trace {
        let stats = client.stats();
        let metrics = client.metrics();
        layers.insert("serve.hit_p50_ms", latency_p50_ms(&samples, Class::Hit));
        layers.insert("serve.miss_p50_ms", latency_p50_ms(&samples, Class::Miss));
        layers.insert("serve.load_p50_ms", latency_p50_ms(&samples, Class::Load));
        if let Ok(m) = &metrics {
            layers.insert(
                "serve.queue_wait_mean_ms",
                mean_ms(m, "serve.queue_wait_ns"),
            );
            layers.insert(
                "serve.execute_analyze_mean_ms",
                mean_ms(m, "serve.request.analyze_ns"),
            );
            layers.insert(
                "serve.execute_load_mean_ms",
                mean_ms(m, "serve.request.load_ns"),
            );
        }
        if let Ok(s) = &stats {
            let lookups = (s.cache_hits + s.cache_misses).max(1) as f64;
            layers.insert("serve.cache_hit_ratio", s.cache_hits as f64 / lookups);
            layers.insert("serve.resident", s.resident as f64);
            layers.insert("serve.cache_entries", s.cache_entries as f64);
        }
    }

    // Outside the window: every distinct reply must equal the one-shot
    // CLI output for the same workload and flags.
    let mut distinct: Vec<(String, Vec<String>, String)> = (0..RESIDENT)
        .map(|i| {
            (
                daemon.files[i].clone(),
                base_args(),
                daemon.reference[i].clone(),
            )
        })
        .collect();
    for s in &samples {
        if let Some((which, args, output)) = &s.distinct {
            if !distinct.iter().any(|(_, _, o)| o == output) {
                distinct.push((daemon.files[*which].clone(), args.clone(), output.clone()));
            }
        }
    }
    if let Ok(rosace) = client.run("analyze", "rosace", &[]) {
        distinct.push(("rosace".to_owned(), Vec::new(), rosace.output));
    }
    for (token, args, served) in &distinct {
        let mut argv = vec!["analyze".to_owned(), token.clone()];
        argv.extend(args.iter().cloned());
        let one_shot = mia_cli::run(&argv).map_err(|e| e.to_string());
        checks.check(one_shot.as_ref() == Ok(served), || {
            format!("served reply for {token} {args:?} differs from one-shot `mia analyze`")
        });
    }

    if ctx.trace {
        match layers::pass(&daemon.files[0], ARBITER, 1) {
            Ok(p) => {
                checks.check(
                    strip_pool_line(&p.rendered) == strip_pool_line(&daemon.reference[0]),
                    || "layer-by-layer report differs from the served one".into(),
                );
                if let Ok((unsound, sim_s)) = layers::unsound_tasks(&p.problem, &p.report, ARBITER)
                {
                    layers.insert("unsound_tasks", unsound as f64);
                    layers.insert("sim.simulate_s", sim_s);
                }
                layers::record(&mut layers, &[p]);
            }
            Err(e) => checks.check(false, || format!("layered pass: {e}")),
        }
        // Traced: a quarter-length window of the same mix with telemetry
        // on, cut into short slices so that draining the span buffers
        // between slices keeps the workers under the per-thread cap. The
        // daemon's queue-wait and execute spans against the client
        // latencies leave transport and framing as the unattributed rest.
        let window = (ctx.window / 4).max(Duration::from_millis(500));
        let slices = (window.as_millis() / TRACE_SLICE.as_millis()).max(1) as u32;
        let mut ledger = Ledger::default();
        let mut dropped = 0;
        let mut traced_samples = Vec::new();
        for slice in 0..slices {
            let seed = ctx.seed ^ (0x5eed + u64::from(slice));
            let ((slice_samples, _), spans, lost) =
                traced(|| drive(&daemon, seed, window / slices, &deadlines));
            ledger.merge(Ledger::new(&spans, u64::MAX));
            dropped += lost;
            traced_samples.extend(slice_samples);
        }
        record_trace(&mut layers, &ledger, dropped);
        let client_s: f64 = traced_samples.iter().map(|s| s.latency_s).sum();
        let served_s = ledger.total_s("serve.queue_wait") + ledger.total_s("serve.execute");
        layers.insert("ledger.unattributed_ratio", 1.0 - served_s / client_s);
        let traced_mean = client_s / traced_samples.len() as f64;
        let untraced_mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        layers.insert("trace_overhead_ratio", traced_mean / untraced_mean - 1.0);
        account(&mut checks, &mut daemon, &traced_samples);
    }

    // The daemon's own books must agree with what was sent.
    match client.stats() {
        Ok(s) => {
            checks.check(s.replies_err == 0, || {
                format!("{} error replies", s.replies_err)
            });
            checks.check(
                s.cache_hits > 0 && s.cache_misses > 0 && s.loads > 0,
                || format!("mechanism never ran: {s:?}"),
            );
            checks.check(
                s.cache_hits + s.cache_misses == daemon.resident_analyses,
                || {
                    format!(
                        "hits {} + misses {} != {} resident analyses sent",
                        s.cache_hits, s.cache_misses, daemon.resident_analyses
                    )
                },
            );
        }
        Err(e) => checks.check(false, || format!("stats: {e}")),
    }
    drop(client);
    daemon.handle.shutdown();
    for file in &daemon.files {
        let _ = std::fs::remove_file(file);
    }
    Outcome {
        e2e,
        layers,
        checks,
    }
}
