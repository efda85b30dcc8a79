//! The N-way cross-engine conformance harness.
//!
//! The paper's central claim is that the incremental analysis is
//! *semantically equivalent* to the exhaustive baseline while scaling to
//! many-core systems. Every cursor implementation must therefore agree
//! **bit for bit** — a single divergence in the request-service event
//! order silently changes interference bounds. This suite replaces the
//! old pairwise checks (`parallel_equivalence.rs` remains as a focused
//! regression) with one differential oracle:
//!
//! * one scenario generator (random layered DAGs via `mia-gen`, plus
//!   structured and degenerate topologies) drives **every** engine —
//!   sequential scan, layer-parallel at several pool sizes, auto-gated
//!   and pinned — through the same systems, and
//! * asserts identical schedules, identical work counters and identical
//!   observer event streams across all of them, with `mia-baseline`'s
//!   independent double fixed point as a further oracle (bit-identical
//!   schedules in the exact aggregation mode, the one it implements).
//!
//! Coverage is exhaustive by construction, not by sampling: the
//! deterministic sweep below iterates every registered arbiter × every
//! interference mode × every pool size; the proptest on top samples the
//! same space with random workload shapes. The per-suite case count is
//! pinned (`CASES`) so CI runs a fixed, reproducible workload.

use mia_core::testkit::{EngineKind, EngineRun, Event};
use mia_core::{
    analyze_delta_with, AnalysisOptions, CheckpointLog, InterferenceMode, NoopObserver,
};
use mia_dag_gen::{topologies, Family, LayeredDag, Workload};
use mia_model::{Arbiter, Cycles, Platform, Problem};
use proptest::prelude::*;

/// Pinned proptest case count (referenced by the dedicated CI job).
const CASES: u32 = 24;

/// Pool sizes the parallel engine is pinned at: a small pool, an uneven
/// core/worker split, and one worker per core of the MPPA cluster.
const THREAD_COUNTS: [usize; 3] = [2, 3, 16];

/// Interference modes under test (every variant of the enum).
const MODES: [InterferenceMode; 2] = [
    InterferenceMode::AggregateByCore,
    InterferenceMode::PairwiseAdditive,
];

fn arbiters() -> Vec<Box<dyn Arbiter + Send + Sync>> {
    mia_arbiter::REGISTRY
        .iter()
        .map(|entry| mia_arbiter::by_name(entry.canonical).expect("registry resolves"))
        .collect()
}

fn workload(family: Family, total: usize, seed: u64) -> Problem {
    LayeredDag::new(family.config(total, seed))
        .generate()
        .into_problem(&Platform::mppa256_cluster())
        .expect("valid workload")
}

/// Runs one scenario through every engine and asserts that everything
/// observable is bit-identical; in the exact aggregation mode the
/// `mia-baseline` double fixed point must settle on the same schedule.
/// Returns the reference run for scenario-level follow-up assertions.
fn assert_conformance(
    problem: &Problem,
    arbiter: &(dyn Arbiter + Send + Sync),
    mode: InterferenceMode,
    threads: &[usize],
    label: &str,
) -> EngineRun {
    let options = AnalysisOptions::new().interference_mode(mode);
    let reference = EngineKind::Sequential
        .run(problem, arbiter, &options)
        .unwrap_or_else(|e| panic!("{label}: sequential failed: {e}"));
    for kind in EngineKind::all(threads) {
        let run = kind
            .run(problem, arbiter, &options)
            .unwrap_or_else(|e| panic!("{label}: {kind} failed: {e}"));
        assert_eq!(
            run.schedule, reference.schedule,
            "{label}: {kind} schedule diverged"
        );
        assert_eq!(
            run.stats, reference.stats,
            "{label}: {kind} work counters diverged"
        );
        assert_eq!(
            run.events, reference.events,
            "{label}: {kind} observer stream diverged"
        );
    }
    if mode == InterferenceMode::AggregateByCore {
        let baseline = mia_baseline::analyze(problem, arbiter)
            .unwrap_or_else(|e| panic!("{label}: baseline failed: {e}"));
        assert_eq!(
            baseline, reference.schedule,
            "{label}: baseline oracle diverged"
        );
    }
    reference
}

/// The deterministic exhaustive sweep: every registered arbiter × every
/// interference mode × every pinned pool size, on two workload shapes
/// each (a deep fixed-layer-size DAG and a wide fixed-layer-count DAG)
/// — 84 scenarios, comfortably over the 64 the roadmap requires, each
/// compared across three engines.
#[test]
fn every_arbiter_mode_and_pool_size_conforms() {
    let mut scenarios = 0usize;
    for (arb_idx, arbiter) in arbiters().iter().enumerate() {
        for mode in MODES {
            for &threads in &THREAD_COUNTS {
                for (family, total) in [
                    (Family::FixedLayerSize(16), 48),
                    (Family::FixedLayers(4), 72),
                ] {
                    let seed = 1_000 + 97 * arb_idx as u64 + threads as u64;
                    let problem = workload(family, total, seed);
                    let label = format!(
                        "{} / {mode:?} / {threads} threads / {} n={total} seed={seed}",
                        arbiter.name(),
                        family.label(),
                    );
                    let run =
                        assert_conformance(&problem, arbiter.as_ref(), mode, &[threads], &label);
                    // The oracle must not be vacuous: schedules carry
                    // real contention and streams carry real events.
                    assert!(run.stats.ibus_calls > 0, "{label}: no IBUS calls");
                    assert!(
                        run.events
                            .iter()
                            .any(|e| matches!(e, Event::Interference(..))),
                        "{label}: no interference events recorded"
                    );
                    scenarios += 1;
                }
            }
        }
    }
    assert!(scenarios >= 64, "only {scenarios} scenarios covered");
}

/// Structured and degenerate shapes: chains, fork-join, independent
/// tasks, diamonds, zero-WCET chains and the empty problem — the edge
/// cases where cursor fixed points (zero-length chains opening and
/// closing at one instant) historically differ between drivers.
#[test]
fn structured_and_degenerate_topologies_conform() {
    let platform = Platform::new(4, 4);
    let workloads: Vec<(&str, Workload)> = vec![
        ("chain", topologies::chain(12, 4, Cycles(40), 8)),
        ("fork_join", topologies::fork_join(9, 4, Cycles(30), 5)),
        ("independent", topologies::independent(10, 4, Cycles(25))),
        ("diamond", topologies::diamond(3, 4, 4, Cycles(20), 3)),
        ("zero_wcet_chain", topologies::chain(8, 4, Cycles(0), 2)),
    ];
    for arbiter in arbiters() {
        for (name, w) in &workloads {
            let problem = w.clone().into_problem(&platform).expect("valid workload");
            for mode in MODES {
                assert_conformance(
                    &problem,
                    arbiter.as_ref(),
                    mode,
                    &THREAD_COUNTS,
                    &format!("{name} under {}", arbiter.name()),
                );
            }
        }
    }
}

/// The real-benchmark workload families of the sweep driver: the ROSACE
/// avionics case study and the committed SDF3 fixture, expanded exactly
/// as `mia_bench::sweep::SweepFamily` expands them (layered-cyclic
/// mapping on the MPPA cluster). Every registered arbiter × every
/// interference mode runs through every engine — 56 scenarios — and the
/// `mia-baseline` oracle pins the schedules bit-identically, so the new
/// families are as trustworthy as the synthetic ones.
#[test]
fn sdf_benchmark_families_conform() {
    let fixture = mia_sdf::parse_sdf3(include_str!("../../../examples/fixture.sdf3"))
        .expect("committed fixture parses");
    let scenarios: Vec<(&str, mia_sdf::SdfGraph, u64)> = vec![
        ("rosace", mia_sdf::rosace(), 3),
        ("fixture.sdf3", fixture, 5),
    ];
    for (name, graph, iterations) in &scenarios {
        let expansion = graph.expand(*iterations).expect("benchmark expands");
        let platform = Platform::mppa256_cluster();
        let mapping = mia_mapping::layered_cyclic(&expansion.graph, platform.cores())
            .expect("cyclic mapping fits the cluster");
        let problem =
            Problem::new(expansion.graph, mapping, platform).expect("valid benchmark problem");
        for arbiter in arbiters() {
            for mode in MODES {
                let label = format!("{name} ×{iterations} / {mode:?} under {}", arbiter.name());
                let run =
                    assert_conformance(&problem, arbiter.as_ref(), mode, &THREAD_COUNTS, &label);
                assert!(run.stats.ibus_calls > 0, "{label}: no IBUS calls");
            }
        }
    }
}

/// Resumes every engine from a spread of recorded checkpoints and pins
/// the outcome bit-identical to the full run: same schedule, same work
/// counters, and a resumed event stream that is a strict suffix of the
/// full stream (the prefix's events were already emitted by the
/// recording run).
fn assert_resume_conformance(
    problem: &Problem,
    arbiter: &(dyn Arbiter + Send + Sync),
    mode: InterferenceMode,
    threads: &[usize],
    label: &str,
) {
    let options = AnalysisOptions::new().interference_mode(mode);
    let mut log = CheckpointLog::new();
    let full = EngineKind::record(problem, arbiter, &options, &mut log)
        .unwrap_or_else(|e| panic!("{label}: recording run failed: {e}"));
    assert!(!log.is_empty(), "{label}: nothing recorded");
    // A spread of re-entry points: the earliest, a mid-run one, the last.
    let picks = [0, log.len() / 2, log.len() - 1];
    for &idx in &picks {
        let ckpt = &log.checkpoints()[idx];
        for kind in EngineKind::all(threads) {
            let resumed = kind
                .run_resumed(problem, arbiter, &options, ckpt, &full.schedule)
                .unwrap_or_else(|e| panic!("{label}: {kind} resume @{} failed: {e}", ckpt.step()));
            assert_eq!(
                resumed.schedule,
                full.schedule,
                "{label}: {kind} resumed schedule diverged @{}",
                ckpt.step()
            );
            assert_eq!(
                resumed.stats,
                full.stats,
                "{label}: {kind} resumed work counters diverged @{}",
                ckpt.step()
            );
            assert!(
                full.events.ends_with(&resumed.events),
                "{label}: {kind} resumed events are not a suffix @{}",
                ckpt.step()
            );
            if ckpt.step() > 0 {
                assert!(
                    resumed.events.len() < full.events.len(),
                    "{label}: {kind} resume @{} replayed the whole run",
                    ckpt.step()
                );
            }
        }
    }
}

/// Delta-resume conformance: every engine, resumed from checkpoints
/// recorded by the scanning engine, must replay the suffix bit-exactly —
/// for every registered arbiter and interference mode.
#[test]
fn resumed_runs_are_bit_identical_across_engines() {
    for (arb_idx, arbiter) in arbiters().iter().enumerate() {
        for mode in MODES {
            let seed = 9_000 + 31 * arb_idx as u64;
            let problem = workload(Family::FixedLayerSize(8), 56, seed);
            let label = format!("resume / {} / {mode:?} seed={seed}", arbiter.name());
            assert_resume_conformance(&problem, arbiter.as_ref(), mode, &THREAD_COUNTS, &label);
        }
    }
}

/// The tentpole end-to-end check at this layer: change the mapping at a
/// late order position, run [`analyze_delta_with`] against the recorded
/// base run, and pin the result bit-identical to a from-scratch analysis
/// of the changed problem — actually skipping work. An early change must
/// fall back to a full run and still agree.
#[test]
fn delta_reanalysis_matches_from_scratch_after_a_mapping_change() {
    let problem = workload(Family::FixedLayerSize(8), 64, 11);
    let rr = mia_arbiter::by_name("rr").unwrap();
    let options = AnalysisOptions::new();

    let mut log = CheckpointLog::new();
    let base = EngineKind::record(&problem, rr.as_ref(), &options, &mut log).unwrap();

    // A late local move: swap the last two tasks of the busiest core.
    let mapping = problem.mapping();
    let (core, len) = (0..mapping.cores())
        .map(|c| (c, mapping.order(mia_model::CoreId::from_index(c)).len()))
        .max_by_key(|&(_, len)| len)
        .unwrap();
    assert!(len >= 2, "workload must load the busiest core");
    let mut orders: Vec<Vec<mia_model::TaskId>> = (0..mapping.cores())
        .map(|c| mapping.order(mia_model::CoreId::from_index(c)).to_vec())
        .collect();
    orders[core].swap(len - 2, len - 1);
    let late = Problem::new(
        problem.graph().clone(),
        mia_model::Mapping::from_orders(problem.graph(), orders.clone()).unwrap(),
        problem.platform().clone(),
    )
    .unwrap();
    let changed = [(core, len - 2), (core, len - 1)];
    let (delta, branch, resumed) = analyze_delta_with(
        &late,
        rr.as_ref(),
        &options,
        &mut NoopObserver,
        &log,
        &changed,
        &base.schedule,
    )
    .unwrap();
    assert!(resumed, "a last-position change must resume, not restart");
    assert!(!branch.is_empty());
    let scratch = EngineKind::Sequential
        .run(&late, rr.as_ref(), &options)
        .unwrap();
    assert_eq!(delta.schedule, scratch.schedule);
    assert_eq!(delta.stats, scratch.stats);

    // An order-position-0 move invalidates every checkpoint: the fall
    // back is a full, freshly recorded run with the same answer.
    orders[core].swap(0, 1);
    let early = Problem::new(
        problem.graph().clone(),
        mia_model::Mapping::from_orders(problem.graph(), orders).unwrap(),
        problem.platform().clone(),
    )
    .unwrap();
    let (full, fresh, resumed) = analyze_delta_with(
        &early,
        rr.as_ref(),
        &options,
        &mut NoopObserver,
        &log,
        &[(core, 0), (core, 1)],
        &base.schedule,
    )
    .unwrap();
    assert!(!resumed, "a position-0 change must invalidate the prefix");
    assert!(
        !fresh.is_empty(),
        "the fallback re-records for the next move"
    );
    let scratch = EngineKind::Sequential
        .run(&early, rr.as_ref(), &options)
        .unwrap();
    assert_eq!(full.schedule, scratch.schedule);
    assert_eq!(full.stats, scratch.stats);
}

/// Regression for the `next_finish` contract ("strictly after `t`"): on
/// zero-length chains several tasks open *and* close at one instant, so
/// a stale finish date equal to the cursor must never be returned as the
/// next position. Pins that the cursor strictly advances — the invariant
/// a `debug_assert!` used to carry alone, now guaranteed by construction
/// in release builds too.
#[test]
fn cursor_strictly_advances_through_zero_length_chains() {
    let platform = Platform::new(4, 4);
    let w = topologies::chain(8, 4, Cycles(0), 2);
    let problem = w.into_problem(&platform).expect("valid workload");
    for arbiter in arbiters() {
        for mode in MODES {
            for kind in EngineKind::all(&[2]) {
                let options = AnalysisOptions::new().interference_mode(mode);
                let run = kind
                    .run(&problem, arbiter.as_ref(), &options)
                    .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
                let cursors: Vec<Cycles> = run
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Cursor(t) => Some(*t),
                        _ => None,
                    })
                    .collect();
                assert!(
                    cursors.windows(2).all(|w| w[0] < w[1]),
                    "{kind} cursor stalled: {cursors:?}"
                );
            }
        }
    }
}

/// Degenerate pool sizes (0 = auto, 1 = sequential fallback, more
/// workers than cores) must be indistinguishable too.
#[test]
fn degenerate_pool_sizes_conform() {
    let problem = workload(Family::FixedLayerSize(4), 24, 3);
    let rr = mia_arbiter::by_name("rr").unwrap();
    assert_conformance(
        &problem,
        rr.as_ref(),
        InterferenceMode::AggregateByCore,
        &[0, 1, 64],
        "degenerate pools",
    );
}

/// The telemetry contract: flipping the process-global `mia-obs` gate
/// must not change anything observable. Runtime timing lives off
/// `AnalysisStats` (like `ParallelInfo`), so schedules, work counters
/// and observer streams stay bit-identical with telemetry on and off,
/// on every engine and in every interference mode.
#[test]
fn telemetry_gate_does_not_change_any_engine_output() {
    let problem = workload(Family::FixedLayerSize(16), 48, 4117);
    let rr = mia_arbiter::by_name("rr").unwrap();
    for mode in MODES {
        let options = AnalysisOptions::new().interference_mode(mode);
        for kind in EngineKind::all(&[2, 16]) {
            mia_obs::set_enabled(false);
            let off = kind
                .run(&problem, rr.as_ref(), &options)
                .unwrap_or_else(|e| panic!("{kind} / {mode:?} off: {e}"));
            mia_obs::set_enabled(true);
            let on = kind
                .run(&problem, rr.as_ref(), &options)
                .unwrap_or_else(|e| panic!("{kind} / {mode:?} on: {e}"));
            // Drop this round's spans and restore the default gate so
            // the rest of the suite runs on the cheap disabled path.
            mia_obs::set_enabled(false);
            drop(mia_obs::take_spans());
            assert_eq!(on.schedule, off.schedule, "{kind} / {mode:?}: schedule");
            assert_eq!(on.stats, off.stats, "{kind} / {mode:?}: stats");
            assert_eq!(on.events, off.events, "{kind} / {mode:?}: events");
        }
    }
}

/// The empty problem: every engine agrees on the empty schedule and the
/// empty-but-for-the-initial-cursor event stream.
#[test]
fn empty_problem_conforms() {
    let g = mia_model::TaskGraph::new();
    let m = mia_model::Mapping::from_assignment(&g, &[]).unwrap();
    let problem = Problem::new(g, m, Platform::new(1, 1)).unwrap();
    let rr = mia_arbiter::by_name("rr").unwrap();
    let run = assert_conformance(
        &problem,
        rr.as_ref(),
        InterferenceMode::AggregateByCore,
        &[2],
        "empty problem",
    );
    assert!(run.schedule.is_empty());
    assert_eq!(run.events, vec![Event::Cursor(Cycles::ZERO)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Randomized N-way differential check over the full scenario space:
    /// arbiter, interference mode, pool size, DAG family, size and seed
    /// are all drawn per case.
    #[test]
    fn engines_agree_on_random_systems(
        seed in 0u64..100_000,
        total in 8usize..120,
        ls in prop::sample::select(vec![2usize, 4, 16, 64]),
        deep in prop::sample::select(vec![false, true]),
        mode_idx in 0usize..MODES.len(),
        threads in prop::sample::select(THREAD_COUNTS.to_vec()),
        arb_idx in 0usize..7,
    ) {
        let family = if deep { Family::FixedLayerSize(ls) } else { Family::FixedLayers(ls) };
        let problem = workload(family, total, seed);
        let arbiter = &arbiters()[arb_idx];
        assert_conformance(
            &problem,
            arbiter.as_ref(),
            MODES[mode_idx],
            &[threads],
            &format!("random {} n={total} seed={seed} under {}", family.label(), arbiter.name()),
        );
    }
}
